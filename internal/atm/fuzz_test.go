package atm

import (
	"bytes"
	"testing"
)

// FuzzSegmentReassemble checks the round-trip invariant for arbitrary
// SDUs: AppendSegment always produces a framing-valid cell sequence whose
// Reassemble returns the exact input.  Run with `go test -fuzz
// FuzzSegmentReassemble ./internal/atm` to explore; the seed corpus
// runs in normal test mode.
func FuzzSegmentReassemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Add(bytes.Repeat([]byte{0xA5}, 48))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100))
	f.Add(make([]byte, 296))
	f.Fuzz(func(t *testing.T, sdu []byte) {
		if len(sdu) > MaxSDU {
			sdu = sdu[:MaxSDU]
		}
		cells, err := AppendSegment(nil, sdu, 3, 77)
		if err != nil {
			t.Fatalf("AppendSegment: %v", err)
		}
		if len(cells) != CellCount(len(sdu)) {
			t.Fatalf("cell count %d, want %d", len(cells), CellCount(len(sdu)))
		}
		out, err := Reassemble(cells)
		if err != nil {
			t.Fatalf("Reassemble: %v", err)
		}
		if !bytes.Equal(out, sdu) {
			t.Fatal("round trip mismatch")
		}
	})
}
