package algo

import (
	"testing"

	"realsum/internal/crc"
)

// FuzzStrideMatchesSum checks the fixed-stride composition law on
// arbitrary input: the sum folded from the per-block partials of every
// full n-byte block of data, with tail summed directly after them,
// equals the one-shot Sum of data[:k·n]‖tail.  It runs every registry
// algorithm and a generic unreflected CRC of fuzzed width 1–64 and
// polynomial, over an even block size n in 2–96 (half selects it as
// 2·(1 + half mod 48)) and a tail of any length.
func FuzzStrideMatchesSum(f *testing.F) {
	for _, n := range []int{2, 48} {
		for _, tail := range []int{0, 1, n - 1} {
			data := make([]byte, 3*n+5)
			for i := range data {
				data[i] = byte(i*37 + n)
			}
			f.Add(data, data[:tail], uint8(n/2-1), uint8(31), uint64(0x04C11DB7))
		}
	}
	f.Fuzz(func(t *testing.T, data, tail []byte, half, wsel uint8, poly uint64) {
		n := 2 * (1 + int(half)%48)
		w := 1 + wsel%64
		blocks := data[:len(data)/n*n]
		msg := append(append([]byte{}, blocks...), tail...)
		algs := append(All(), NewCRC(crc.Params{Width: w, Poly: poly}, "crc-fuzz"))
		parts := make([]uint64, len(blocks)/n)
		for _, a := range algs {
			s := a.Stride(n)
			for i := range parts {
				parts[i] = s.Partial(blocks[i*n : (i+1)*n])
			}
			got := s.Sum(s.Tail(s.Fold(s.Start(), parts), tail))
			if want := Sum(a, msg); got != want {
				t.Fatalf("%s (width %d) n=%d blocks=%d tail=%d: composed %#x, want %#x",
					a.Name(), a.Width(), n, len(parts), len(tail), got, want)
			}
		}
	})
}

// FuzzStrideDeltaMatchesPartial checks the damaged-block law on
// arbitrary input: for a 48-byte block and a damaged copy of it, with
// diff their crc.AppendNibbles, Patch(Partial(block), diff, damaged)
// equals Partial(damaged).  The
// damage is a program of (position, XOR) byte pairs applied to the copy.
// It runs every registry algorithm and a generic unreflected CRC of
// every width 1–64 over the fuzzed polynomial.  The seeds are a 2-bit
// flip, a 32-bit solid burst across a byte boundary and a whole-block
// rewrite, where every nibble row differs.
func FuzzStrideDeltaMatchesPartial(f *testing.F) {
	block := make([]byte, 48)
	for i := range block {
		block[i] = byte(i*53 + 7)
	}
	f.Add(block, []byte{5, 0x10, 30, 0x01}, uint64(0x04C11DB7))
	f.Add(block, []byte{20, 0x0F, 21, 0xFF, 22, 0xFF, 23, 0xFF, 24, 0xF0}, uint64(0x1021))
	rewrite := make([]byte, 0, 96)
	for i := range 48 {
		rewrite = append(rewrite, byte(i), byte(0xA5^i))
	}
	f.Add(block, rewrite, uint64(0x42F0E1EBA9EA3693))
	f.Fuzz(func(t *testing.T, block, xors []byte, poly uint64) {
		if len(block) < 48 {
			t.Skip()
		}
		block = block[:48]
		damaged := append([]byte{}, block...)
		for o := 0; o+2 <= len(xors); o += 2 {
			damaged[int(xors[o])%48] ^= xors[o+1]
		}
		algs := All()
		for w := uint8(1); w <= 64; w++ {
			algs = append(algs, NewCRC(crc.Params{Width: w, Poly: poly}, "crc-fuzz"))
		}
		diff := crc.AppendNibbles(nil, block, damaged)
		for _, a := range algs {
			s := a.Stride(48)
			got := s.Patch(s.Partial(block), diff, damaged)
			if want := s.Partial(damaged); got != want {
				t.Fatalf("%s (width %d): patched %#x, direct %#x", a.Name(), a.Width(), got, want)
			}
		}
	})
}
