package crc

import "testing"

// FuzzCombine checks the combine identity CRC(A‖B) =
// Combine(CRC(A), CRC(B), |B|) for arbitrary splits of arbitrary data,
// across a representative subset of the catalog.
func FuzzCombine(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{0xFF, 0xFF, 0xFF})
	f.Add(make([]byte, 100), []byte("x"))
	tabs := []*Table{New(CRC32), New(CRC10), New(CRC16CCITT), New(CRC64)}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		whole := append(append([]byte{}, a...), b...)
		for _, tab := range tabs {
			want := tab.Checksum(whole)
			got := tab.Combine(tab.Checksum(a), tab.Checksum(b), len(b))
			if got != want {
				t.Fatalf("%s: Combine %#x != %#x (lenA=%d lenB=%d)",
					tab.Params().Name, got, want, len(a), len(b))
			}
		}
	})
}

// FuzzSlicingEquivalence checks the slicing-by-8 engine against the
// scalar oracle for arbitrary input, reflected and unreflected, from
// 5 to 64 bits wide.
func FuzzSlicingEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add([]byte("0123456789abcdef0123456789abcdef!"))
	tabs := []*Table{New(CRC32), New(CRC32C), New(CRC8HEC), New(CRC64), New(MakeParams(5, 0x05))}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tab := range tabs {
			if got, want := tab.updateSlicing(tab.initReg(), data), tab.updateScalar(tab.initReg(), data); got != want {
				t.Fatalf("%s: slicing %#x != scalar %#x (len %d)",
					tab.Params().Name, got, want, len(data))
			}
		}
	})
}
