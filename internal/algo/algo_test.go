package algo

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"realsum/internal/adler"
	"realsum/internal/crc"
	"realsum/internal/fletcher"
	"realsum/internal/inet"
)

func randData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{
		"tcp", "f255", "f256", "fletcher32", "adler32",
		"crc32", "crc32c", "crc10", "crc16", "crc16-ccitt", "crc8", "crc64",
	} {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("builtin %q not registered", name)
		}
		if a.Name() != name {
			t.Errorf("%q: Name() = %q", name, a.Name())
		}
		if a.Width() < 8 || a.Width() > 64 {
			t.Errorf("%q: width %d", name, a.Width())
		}
		if p := a.UniformP(); p <= 0 || p > 1.0/255 {
			t.Errorf("%q: UniformP = %g", name, p)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if len(All()) != len(Names()) || len(All()) < 12 {
		t.Errorf("All/Names inconsistent: %d vs %d", len(All()), len(Names()))
	}
}

// TestSumMatchesDirect pins every adapter to the implementation it
// wraps, so the registry can never drift from the packages the paper's
// experiments use directly.
func TestSumMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	crc32t := crc.New(crc.CRC32)
	for _, n := range []int{0, 1, 2, 47, 48, 255, 1000} {
		data := randData(rng, n)
		checks := []struct {
			name string
			want uint64
		}{
			{"tcp", uint64(inet.Checksum(data))},
			{"f255", uint64(fletcher.Mod255.Sum(data).Checksum16())},
			{"f256", uint64(fletcher.Mod256.Sum(data).Checksum16())},
			{"fletcher32", uint64(fletcher.Sum32(data).Checksum32())},
			{"adler32", uint64(adler.Checksum(data))},
			{"crc32", crc32t.Checksum(data)},
		}
		for _, c := range checks {
			if got := MustLookup(c.name).Sum(data); got != c.want {
				t.Errorf("n=%d %s: Sum = %#x, want %#x", n, c.name, got, c.want)
			}
		}
	}
}

// TestDigestMatchesSum streams each algorithm over arbitrary write
// boundaries (including odd splits, the Fletcher-32 pending-byte case)
// and checks the digest agrees with the one-shot Sum.
func TestDigestMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	data := randData(rng, 1537)
	for _, a := range All() {
		d := a.New()
		for off := 0; off < len(data); {
			n := 1 + rng.IntN(97)
			if off+n > len(data) {
				n = len(data) - off
			}
			d.Write(data[off : off+n])
			off += n
		}
		if got, want := d.Sum64(), a.Sum(data); got != want {
			t.Errorf("%s: streamed %#x != one-shot %#x", a.Name(), got, want)
		}
		d.Reset()
		d.Write(data[:10])
		if got, want := d.Sum64(), a.Sum(data[:10]); got != want {
			t.Errorf("%s: after Reset %#x != %#x", a.Name(), got, want)
		}
	}
}

// TestSumHelper pins the package-level one-shot helper to the method it
// wraps, for every registry algorithm.
func TestSumHelper(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, n := range []int{0, 9, 64, 1500, 5000, 64 << 10} {
		data := randData(rng, n)
		for _, a := range All() {
			if got, want := Sum(a, data), a.Sum(data); got != want {
				t.Errorf("%s n=%d: Sum helper %#x != method %#x", a.Name(), n, got, want)
			}
		}
	}
}

// TestSumZeroAlloc pins the hot-loop contract netsim's per-segment
// scoring relies on: once kernels and pools are warm, Sum allocates
// nothing for any registry algorithm at cell, MTU and bulk sizes.
func TestSumZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, so alloc counts are not meaningful")
	}
	rng := rand.New(rand.NewPCG(5, 5))
	data := randData(rng, 64<<10)
	var sink uint64
	for _, a := range All() {
		for _, n := range []int{48, 1500, 64 << 10} {
			d := data[:n]
			sink ^= Sum(a, d) // warm kernel scratch pools
			allocs := testing.AllocsPerRun(20, func() {
				sink ^= Sum(a, d)
			})
			if allocs > 0 {
				t.Errorf("%s n=%d: %.1f allocs per Sum, want 0", a.Name(), n, allocs)
			}
		}
	}
	_ = sink
}

// BenchmarkSum times every registry algorithm's one-shot Sum at an ATM
// cell payload's worth, an Ethernet MTU and bulk: the §2 cost model
// ("measurements have typically shown the TCP checksum to be two to
// four times faster" than Fletcher's).  CRC sub-benchmarks are named
// algorithm/kernel/size after the bulk engine the table raced to, so a
// run records which kernel produced each number.
func BenchmarkSum(b *testing.B) {
	data := randData(rand.New(rand.NewPCG(42, 42)), 64<<10)
	for _, a := range All() {
		name := a.Name()
		if c, ok := a.(crcAlgo); ok {
			name += "/" + c.t.Kernel()
		}
		for _, n := range []int{64, 1500, 64 << 10} {
			d := data[:n]
			b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
				Sum(a, d) // warm kernel scratch pools before b.Loop starts the timer
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for b.Loop() {
					Sum(a, d)
				}
			})
		}
	}
}

// TestCombinerMatchesDirect checks the O(1) recombination law for every
// algorithm that claims it: Sum(A‖B) from Sum(A), Sum(B) and lengths,
// over random data and split points including odd-length A (the TCP
// byte-swap case).
func TestCombinerMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var combiners []Combiner
	for _, a := range All() {
		if c, ok := a.(Combiner); ok {
			combiners = append(combiners, c)
		}
	}
	if len(combiners) < 5 {
		t.Fatalf("only %d combiners registered", len(combiners))
	}
	for trial := 0; trial < 50; trial++ {
		data := randData(rng, 1+rng.IntN(900))
		cut := rng.IntN(len(data) + 1)
		a, b := data[:cut], data[cut:]
		for _, c := range combiners {
			got := c.Combine(c.Sum(a), c.Sum(b), len(a), len(b))
			want := c.Sum(data)
			if got != want {
				t.Errorf("%s: Combine(|A|=%d, |B|=%d) = %#x, want %#x",
					c.Name(), len(a), len(b), got, want)
			}
		}
	}
}
