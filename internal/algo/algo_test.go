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
// scoring relies on: Sum allocates nothing for any registry algorithm
// at cell, MTU and bulk sizes.
func TestSumZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	data := randData(rng, 64<<10)
	var sink uint64
	for _, a := range All() {
		for _, n := range []int{48, 1500, 64 << 10} {
			d := data[:n]
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
// four times faster" than Fletcher's).  Sub-benchmarks are named
// algorithm/size.
func BenchmarkSum(b *testing.B) {
	data := randData(rand.New(rand.NewPCG(42, 42)), 64<<10)
	for _, a := range All() {
		for _, n := range []int{64, 1500, 64 << 10} {
			d := data[:n]
			b.Run(fmt.Sprintf("%s/%d", a.Name(), n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for b.Loop() {
					Sum(a, d)
				}
			})
		}
	}
}

// TestStrideMatchesDirect checks the fixed-stride composition law for
// every registry algorithm (Fletcher-32 included: its blocks sit at even
// offsets) and for generic-width CRCs of both register alignments, with
// every partial inside the algorithm's width:
// Sum(B₀‖…‖B_{k−1}‖T) from per-block partials folded in one or two
// calls plus a directly summed tail of any length, odd ones included,
// at every cell count up to a long train that crosses the pair
// strides' reduction interval.  The 4096-byte stride is cmd/cksum's
// block, past crc.MaxDeltaLen where a CRC stride builds no Delta; its
// trains stop at 12 blocks to keep the test fast.
func TestStrideMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	algs := All()
	for _, p := range []crc.Params{
		crc.CRC32, crc.CRC32C, crc.CRC10, crc.CRC16, crc.CRC16CCITT, crc.CRC16XMODEM, crc.CRC8HEC, crc.CRC8, crc.CRC64,
		crc.CRC24A, crc.CRC24B, crc.CRC24C, crc.CRC11NR, crc.CRC6NR, crc.CRC32K, crc.CRC32K2,
	} {
		algs = append(algs, NewCRC(p, p.Name))
	}
	fill := map[string]func([]byte){
		"random": func(b []byte) {
			for i := range b {
				b[i] = byte(rng.Uint32())
			}
		},
		"0xfe": func(b []byte) {
			for i := range b {
				b[i] = 0xFE
			}
		},
	}
	for _, n := range []int{48, 2, 64, 4096} {
		for _, a := range algs {
			s := a.Stride(n)
			for _, k := range []int{0, 1, 2, 3, 7, 12, 1500} {
				if n == 4096 && k > 12 {
					continue
				}
				for fname, f := range fill {
					data := make([]byte, k*n+n)
					f(data)
					parts := make([]uint64, k)
					for i := range parts {
						parts[i] = s.Partial(data[i*n : (i+1)*n])
						if a.Width() < 64 && parts[i]>>a.Width() != 0 {
							t.Fatalf("%s: partial %#x exceeds %d bits", a.Name(), parts[i], a.Width())
						}
					}
					cut := k / 2
					whole := s.Fold(s.Start(), parts)
					split := s.Fold(s.Fold(s.Start(), parts[:cut]), parts[cut:])
					if whole != split {
						t.Errorf("%s n=%d k=%d %s: split fold %#x != one fold %#x", a.Name(), n, k, fname, split, whole)
					}
					for _, tail := range []int{0, 1, n / 2, n - 1, n} {
						msg := data[:k*n+tail]
						got := s.Sum(s.Tail(whole, msg[k*n:]))
						if want := Sum(a, msg); got != want {
							t.Errorf("%s n=%d k=%d tail=%d %s: composed %#x, want %#x",
								a.Name(), n, k, tail, fname, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStrideRejectsOddBlocks: an odd block would put the next block at
// an odd offset, where the TCP sum needs a byte swap and Fletcher-32
// cannot compose at all.
func TestStrideRejectsOddBlocks(t *testing.T) {
	for _, a := range All() {
		for _, n := range []int{0, -2, 47} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Stride(%d) did not panic", a.Name(), n)
					}
				}()
				a.Stride(n)
			}()
		}
	}
}

// TestStridePatchLength: a block longer than crc.MaxDeltaLen still
// strides for every algorithm, and only a CRC's Patch refuses it.
func TestStridePatchLength(t *testing.T) {
	n := crc.MaxDeltaLen + 2
	block := make([]byte, n)
	for _, a := range All() {
		s := a.Stride(n)
		_, isCRC := s.(crcStride)
		func() {
			defer func() {
				if panicked := recover() != nil; panicked != isCRC {
					t.Errorf("%s: Patch at stride %d panicked=%v, want %v", a.Name(), n, panicked, isCRC)
				}
			}()
			s.Patch(s.Partial(block), nil, block)
		}()
	}
}
