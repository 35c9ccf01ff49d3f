package crc

import "testing"

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
