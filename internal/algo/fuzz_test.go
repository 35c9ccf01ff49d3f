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
		algs := append(All(), NewCRC(crc.MakeParams(w, poly), "crc-fuzz"))
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
