package atm

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func TestCellCount(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 1},   // trailer alone fits one cell
		{1, 1},   // 1+8 = 9 <= 48
		{40, 1},  // 40+8 = 48: exactly one cell
		{41, 2},  // 49 -> 2 cells
		{88, 2},  // 96: exactly 2
		{256, 6}, // 264 -> 6 cells of payload alone...
		{296, 7}, // the paper's 296-byte packets: 304 -> 7 cells
		{298, 7}, // trailer-checksum packets: 306 -> 7 cells
	}
	for _, tc := range tests {
		if got := CellCount(tc.n); got != tc.want {
			t.Errorf("CellCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(2000)
		sdu := make([]byte, n)
		for i := range sdu {
			sdu[i] = byte(rng.Uint32())
		}
		cells, err := AppendSegment(nil, sdu, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != CellCount(n) {
			t.Fatalf("n=%d: %d cells, want %d", n, len(cells), CellCount(n))
		}
		for i, c := range cells {
			if got, want := c.Header.EndOfPacket(), i == len(cells)-1; got != want {
				t.Fatalf("cell %d/%d: EndOfPacket = %v", i, len(cells), got)
			}
		}
		out, err := Reassemble(cells)
		if err != nil {
			t.Fatalf("n=%d: reassemble: %v", n, err)
		}
		if !bytes.Equal(out, sdu) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
	}
}

func TestSegmentTooLong(t *testing.T) {
	if _, err := AppendSegment(nil, make([]byte, MaxSDU+1), 0, 1); err != ErrTooLong {
		t.Errorf("got %v, want ErrTooLong", err)
	}
}

func TestReassembleRejectsFraming(t *testing.T) {
	sdu := make([]byte, 296)
	cells, _ := AppendSegment(nil, sdu, 0, 32)

	if _, err := Reassemble(nil); err != ErrNoCells {
		t.Errorf("empty: %v", err)
	}
	// Unmarked final cell.
	unmarked := append([]Cell{}, cells...)
	unmarked[len(unmarked)-1].Header.PTI = 0
	if _, err := Reassemble(unmarked); err != ErrNotLast {
		t.Errorf("unmarked last: %v", err)
	}
	// Interior marked cell.
	early := append([]Cell{}, cells...)
	early[2].Header.PTI = 1
	if _, err := Reassemble(early); err != ErrEarlyLast {
		t.Errorf("early last: %v", err)
	}
	// Dropped interior cell: length check fires before CRC.
	dropped := append(append([]Cell{}, cells[:2]...), cells[3:]...)
	if _, err := Reassemble(dropped); err != ErrBadLength {
		t.Errorf("dropped cell: %v", err)
	}
	// Corrupted payload byte: CRC catches it.
	corrupt := append([]Cell{}, cells...)
	corrupt[1].Payload[10] ^= 0xFF
	if _, err := Reassemble(corrupt); err != ErrBadCRC {
		t.Errorf("corrupt payload: %v", err)
	}
}

func TestCheckFramingMatchesReassemble(t *testing.T) {
	sdu := make([]byte, 500)
	for i := range sdu {
		sdu[i] = byte(i * 3)
	}
	cells, _ := AppendSegment(nil, sdu, 1, 2)
	tr, err := CheckFraming(cells)
	if err != nil {
		t.Fatal(err)
	}
	if int(tr.Length) != len(sdu) {
		t.Errorf("trailer length %d, want %d", tr.Length, len(sdu))
	}
}

func TestSpliceOfWholeCellsDetectedByLengthOrCRC(t *testing.T) {
	// Construct the Figure-1 style splice by hand: two 4-cell packets,
	// keep cells 0,2 of the first and 0,3 of the second.  The splice has
	// the right cell count and ends in a marked cell, so framing passes
	// — only the CRC stands in the way.
	mk := func(fill byte) []Cell {
		sdu := make([]byte, 160) // 160+8 = 168 -> 4 cells
		for i := range sdu {
			sdu[i] = fill
		}
		cells, err := AppendSegment(nil, sdu, 0, 5)
		if err != nil || len(cells) != 4 {
			t.Fatalf("setup: %v (%d cells)", err, len(cells))
		}
		return cells
	}
	p1, p2 := mk(0xAA), mk(0xBB)
	splice := []Cell{p1[0], p1[2], p2[0], p2[3]}
	if _, err := CheckFraming(splice); err != nil {
		t.Fatalf("framing should pass for a size-consistent splice: %v", err)
	}
	if _, err := Reassemble(splice); err != ErrBadCRC {
		t.Errorf("splice of distinct payloads: got %v, want ErrBadCRC", err)
	}
}

func TestReassembleZeroLengthSDU(t *testing.T) {
	cells, err := AppendSegment(nil, nil, 0, 1)
	if err != nil || len(cells) != 1 {
		t.Fatalf("AppendSegment(nil, nil): %v, %d cells", err, len(cells))
	}
	out, err := Reassemble(cells)
	if err != nil || len(out) != 0 {
		t.Errorf("Reassemble: %v, %d bytes", err, len(out))
	}
}
