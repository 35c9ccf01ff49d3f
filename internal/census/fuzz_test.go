package census

import (
	"math/bits"
	"testing"

	"realsum/internal/crc"
)

// bitwiseCRC is the bit-at-a-time shift-register definition of a CRC,
// the reference the census's generic-width tables are held to.
func bitwiseCRC(p crc.Params, data []byte) uint64 {
	mask := p.Mask()
	reg := p.Init & mask
	for _, b := range data {
		if p.RefIn {
			b = bits.Reverse8(b)
		}
		for i := 7; i >= 0; i-- {
			top := reg>>(p.Width-1)&1 ^ uint64(b>>uint(i))&1
			reg = reg << 1 & mask
			if top == 1 {
				reg ^= p.Poly
			}
		}
	}
	if p.RefOut {
		reg = crc.Reflect(reg, p.Width)
	}
	return (reg ^ p.XorOut) & mask
}

// FuzzCensusParams fuzzes the generic-width table constructor the
// census rides: arbitrary Rocksoft parameters inside crc.New's domain
// (width 1..64, RefIn = RefOut, an odd polynomial within the width) must
// produce a table whose checksum matches the bit-at-a-time reference.
func FuzzCensusParams(f *testing.F) {
	f.Add(uint8(32), uint64(0x04C11DB7), uint64(0xFFFFFFFF), true, true, []byte("123456789"))
	f.Add(uint8(24), uint64(0x864CFB), uint64(0), false, false, []byte("123456789"))
	f.Add(uint8(11), uint64(0x621), uint64(0), false, false, []byte{0, 0, 1})
	f.Add(uint8(64), uint64(0x42F0E1EBA9EA3693), uint64(0), false, false, []byte("@"))
	f.Add(uint8(0), uint64(1), uint64(0), false, false, []byte{})      // invalid width
	f.Add(uint8(16), uint64(0x1021), uint64(0), true, false, []byte{}) // RefIn != RefOut
	f.Add(uint8(8), uint64(0x06), uint64(0), false, false, []byte{7})  // no +1 term
	f.Fuzz(func(t *testing.T, width uint8, poly, init uint64, refIn, refOut bool, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		p := crc.Params{
			Name:   "fuzz",
			Width:  width,
			Poly:   poly,
			RefIn:  refIn,
			RefOut: refOut,
		}
		if width < 1 || width > 64 || refIn != refOut || poly&^p.Mask() != 0 || poly&1 == 0 {
			return
		}
		p.Init = init & p.Mask()
		tab := crc.New(p)
		got := tab.Checksum(data)
		want := bitwiseCRC(p, data)
		if got != want {
			t.Fatalf("w=%d poly=%#x init=%#x ref=%v/%v len=%d: table %#x != bitwise %#x",
				width, poly, p.Init, refIn, refOut, len(data), got, want)
		}
		if len(data) > 1 {
			// Unaligned tail: the same table must agree on a sub-slice too.
			if g, w := tab.Checksum(data[1:]), bitwiseCRC(p, data[1:]); g != w {
				t.Fatalf("w=%d poly=%#x sub-slice: table %#x != bitwise %#x", width, poly, g, w)
			}
		}
	})
}
