package adler

import (
	"hash/adler32"
	"math/rand/v2"
	"testing"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestChecksumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := [][]byte{nil, {0}, {0xFF}, []byte("Wikipedia")}
	for i := 0; i < 200; i++ {
		cases = append(cases, randBytes(rng, rng.IntN(20000)))
	}
	for _, data := range cases {
		if got, want := Checksum(data), adler32.Checksum(data); got != want {
			t.Fatalf("len %d: ours %#08x, stdlib %#08x", len(data), got, want)
		}
	}
}

func TestKnownVector(t *testing.T) {
	// The classic published value.
	if got := Checksum([]byte("Wikipedia")); got != 0x11E60398 {
		t.Errorf(`Checksum("Wikipedia") = %#08x, want 0x11E60398`, got)
	}
}

func TestLongBufferReduction(t *testing.T) {
	// Worst-case bytes across several nmax boundaries.
	data := make([]byte, 3*nmax+123)
	for i := range data {
		data[i] = 0xFF
	}
	if got, want := Checksum(data), adler32.Checksum(data); got != want {
		t.Errorf("long buffer: %#08x vs %#08x", got, want)
	}
}

func TestNoTwoZerosUnlikeFletcher255(t *testing.T) {
	// The prime modulus kills the paper's §5.5 PBM pathology: a cell of
	// 0xFF bytes is NOT congruent to a cell of zeros under Adler.
	zeros := make([]byte, 48)
	ffs := make([]byte, 48)
	for i := range ffs {
		ffs[i] = 0xFF
	}
	if Checksum(zeros) == Checksum(ffs) {
		t.Error("Adler-32 should distinguish 0x00 cells from 0xFF cells")
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}
