package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// sparseParams are the parameterizations with catalogued sparse
// multiples, i.e. the ones the chorba and nguyen kernels accept.
func sparseParams() []Params { return []Params{CRC32, CRC32C} }

// TestSparseMultiplesAreMultiples re-derives the pinned exponent lists'
// defining property against the bitwise reference engine: the sum of
// x^{u·e} mod G over the exponents is zero for both the byte (u=8) and
// the lifted word (u=64) readings.  A wrong constant fails here before
// it can fail anywhere subtler.
func TestSparseMultiplesAreMultiples(t *testing.T) {
	for _, p := range sparseParams() {
		exps := sparseMultiples[p.Poly]
		if exps == nil || exps[0] != 0 {
			t.Fatalf("%s: missing or unnormalized exponent list %v", p.Name, exps)
		}
		for _, unitBytes := range []int{1, 8} { // x^8 and x^64 units
			// x^{u·e} mod G is the register after e unit-sized zero
			//"bytes" advance a register seeded with polynomial 1.
			// Work unreflected: seed register 1, shift in zero bytes.
			q := Params{Name: p.Name, Width: p.Width, Poly: p.Poly}
			acc := uint64(0)
			for _, e := range exps {
				reg := uint64(1)
				reg = q.bitwiseUpdate(reg, make([]byte, e*unitBytes))
				acc ^= reg
			}
			if acc != 0 {
				t.Errorf("%s: exponents %v (unit %d bytes) do not sum to a multiple of the generator (residue %#x)",
					p.Name, exps, unitBytes, acc)
			}
		}
	}
}

// TestKernelsDifferentialOracle races every kernel against the scalar
// engine across every catalogued parameterization on random lengths
// from 0 to 64 KiB, sliding the data through all 8 alignments of the
// 8-byte bulk loop, and pins the CRC-32/CRC-32C results to the
// standard library's hash/crc32.
func TestKernelsDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	base := make([]byte, 64<<10+8)
	for i := range base {
		base[i] = byte(rng.Uint32())
	}
	lengths := []int{0, 1, 7, 8, 9, 16, 48, 300, 316, 1500, 2416, 2500}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, rng.IntN(64<<10))
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, p := range Catalog() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			for _, n := range lengths {
				for align := 0; align < 8; align++ {
					data := base[align : align+n]
					want := tab.finalizeReg(tab.updateScalar(tab.initReg(), data))
					k, _ := kernelByName(kn)
					got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg(), data))
					if got != want {
						t.Fatalf("%s/%s: len=%d align=%d: %#x != scalar %#x",
							p.Name, kn, n, align, got, want)
					}
					switch p.Name {
					case "CRC-32":
						if std := uint64(crc32.ChecksumIEEE(data)); got != std {
							t.Fatalf("CRC-32/%s len=%d align=%d: %#x != hash/crc32 %#x", kn, n, align, got, std)
						}
					case "CRC-32C":
						if std := uint64(crc32.Checksum(data, castagnoli)); got != std {
							t.Fatalf("CRC-32C/%s len=%d align=%d: %#x != hash/crc32 %#x", kn, n, align, got, std)
						}
					}
				}
			}
		}
	}
}

// TestKernelShortInputs walks the dispatch tail path over every length
// from 0 through 64 bytes — the 0–7 byte sub-word tail is the classic
// off-by-one surface for wide-word CRC engines — comparing each kernel
// against the bitwise reference, at every alignment.
func TestKernelShortInputs(t *testing.T) {
	base := []byte("\x00\xff\x55\xaaThe quick brown fox jumps over the lazy dog 0123456789abcdef!!")
	for _, p := range sparseParams() {
		tab := New(p)
		for _, kn := range tab.Kernels() {
			k, _ := kernelByName(kn)
			for n := 0; n <= 56; n++ {
				for align := 0; align < 8; align++ {
					data := base[align : align+n]
					want := p.BitwiseChecksum(data)
					got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg(), data))
					if got != want {
						t.Fatalf("%s/%s len=%d align=%d: %#x != bitwise %#x", p.Name, kn, n, align, got, want)
					}
				}
			}
		}
	}
}

// TestKernelFoldBoundaries drives each fold kernel across its minimum
// reach one byte at a time, where the scratch-copy loop, the ring
// drain and the scalar tail exchange responsibility.
func TestKernelFoldBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	for _, p := range sparseParams() {
		tab := New(p)
		if tab.sp == nil {
			t.Fatalf("%s: no sparse kernel", p.Name)
		}
		var lens []int
		for d := -9; d <= 9; d++ {
			// The dispatch floor, plus the interior hand-offs: word stage
			// to byte stage (span words in) and byte stage to scalar tail.
			lens = append(lens, tab.sp.bulkMin+d, tab.sp.bulkMin+8*tab.sp.span+d, 9*tab.sp.span+d)
		}
		for _, kid := range []kernelID{kernelChorba, kernelNguyen} {
			for _, n := range lens {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Uint32())
				}
				want := tab.updateScalar(tab.initReg(), data)
				if got := tab.kernelUpdate(kid, tab.initReg(), data); got != want {
					t.Fatalf("%s/%s len=%d: %#x != scalar %#x", p.Name, kernelNames[kid], n, got, want)
				}
			}
		}
	}
}

// TestSelectedKernelMatchesOracle pins the auto-selection contract CI
// relies on: whatever kernel New picked verifies cleanly against the
// scalar engine on the pinned vectors, and the choice is stable within
// a process (the per-Params cache).
func TestSelectedKernelMatchesOracle(t *testing.T) {
	for _, p := range Catalog() {
		tab := New(p)
		if err := tab.VerifyKernel(tab.Kernel()); err != nil {
			t.Errorf("%s: selected kernel fails the oracle: %v", p.Name, err)
		}
		if again := New(p); again.Kernel() != tab.Kernel() {
			t.Errorf("%s: selection not stable within process: %s then %s", p.Name, tab.Kernel(), again.Kernel())
		}
	}
	tab := New(CRC16) // no sparse multiple → slicing8 without racing
	if tab.Kernel() != "slicing8" {
		t.Errorf("CRC-16 selected %s, want slicing8", tab.Kernel())
	}
}

// TestSetKernel covers the override surface: every available kernel
// takes, unknown names and unsupported kernels error, and "auto"
// restores a raced choice.
func TestSetKernel(t *testing.T) {
	tab := New(CRC32)
	for _, kn := range tab.Kernels() {
		if err := tab.SetKernel(kn); err != nil {
			t.Fatalf("SetKernel(%s): %v", kn, err)
		}
		if tab.Kernel() != kn {
			t.Fatalf("Kernel() = %s after SetKernel(%s)", tab.Kernel(), kn)
		}
	}
	if err := tab.SetKernel("simd"); err == nil {
		t.Error("SetKernel(simd) succeeded")
	}
	if err := tab.SetKernel("auto"); err != nil {
		t.Errorf("SetKernel(auto): %v", err)
	}
	t16 := New(CRC16)
	if err := t16.SetKernel("chorba"); err == nil {
		t.Error("SetKernel(chorba) on CRC-16 succeeded; no sparse multiple exists")
	}
	if len(t16.Kernels()) != 2 {
		t.Errorf("CRC-16 kernels = %v, want scalar+slicing8 only", t16.Kernels())
	}
}

// TestKernelStreamingDigest checks that a Digest fed arbitrary chunk
// sizes through each kernel agrees with the one-shot checksum: the
// fold kernels must compose across Write boundaries via the raw
// register exactly like the table paths do.
func TestKernelStreamingDigest(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	for _, p := range sparseParams() {
		tab := New(p)
		want := tab.Checksum(data)
		for _, kn := range tab.Kernels() {
			if err := tab.SetKernel(kn); err != nil {
				t.Fatal(err)
			}
			d := tab.NewDigest()
			for off := 0; off < len(data); {
				n := 1 + rng.IntN(4000)
				if off+n > len(data) {
					n = len(data) - off
				}
				d.Write(data[off : off+n])
				off += n
			}
			if got := d.CRC(); got != want {
				t.Errorf("%s/%s: streamed %#x != one-shot %#x", p.Name, kn, got, want)
			}
		}
		tab.SetKernel("auto")
	}
}

// TestKernelZeroAlloc pins the pooled-scratch contract: once warm, the
// fold kernels checksum bulk input without allocating.
func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, so alloc counts are not meaningful")
	}
	data := pinnedBuf()[:64<<10]
	for _, p := range sparseParams() {
		tab := New(p)
		for _, kid := range []kernelID{kernelChorba, kernelNguyen} {
			kid := kid
			tab.kernelUpdate(kid, tab.initReg(), data) // warm the pools
			allocs := testing.AllocsPerRun(20, func() {
				raceSink ^= tab.kernelUpdate(kid, tab.initReg(), data)
			})
			if allocs > 0 {
				t.Errorf("%s/%s: %.1f allocs per 64 KiB checksum, want 0", p.Name, kernelNames[kid], allocs)
			}
		}
	}
}

// TestKernelConcurrent hammers one shared table from many goroutines
// (the registry's usage pattern: netsim workers share algo instances).
// Run under -race this doubles as the kernel data-race gate.
func TestKernelConcurrent(t *testing.T) {
	data := pinnedBuf()
	for _, p := range sparseParams() {
		tab := New(p)
		for _, kid := range []kernelID{kernelChorba, kernelNguyen} {
			want := tab.finalizeReg(tab.updateScalar(tab.initReg(), data))
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func() {
					for i := 0; i < 25; i++ {
						if got := tab.finalizeReg(tab.kernelUpdate(kid, tab.initReg(), data)); got != want {
							done <- fmt.Errorf("%s/%s: concurrent checksum %#x != %#x", p.Name, kernelNames[kid], got, want)
							return
						}
					}
					done <- nil
				}()
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestNguyenRingReturnsZeroed pins the pool invariant the ring kernel
// depends on: every Put returns an all-zero ring, including after
// inputs whose word count wraps the ring several times.
func TestNguyenRingReturnsZeroed(t *testing.T) {
	for _, p := range sparseParams() {
		tab := New(p)
		for _, n := range []int{tab.sp.bulkMin, tab.sp.bulkMin + 8191, 64 << 10} {
			tab.nguyen(tab.initReg(), pinnedBuf()[:n])
			rp := tab.sp.ringPool.Get().(*[]uint64)
			for i, w := range *rp {
				if w != 0 {
					t.Fatalf("%s: ring slot %d = %#x after len-%d input, want 0", p.Name, i, w, n)
				}
			}
			tab.sp.ringPool.Put(rp)
		}
	}
}

// FuzzKernels compares every kernel on arbitrary input against the
// scalar engine, and the CRC-32/CRC-32C results against hash/crc32.
// Seeds cover the empty input, the catalog check string, sub-word
// tails, and inputs beyond the fold kernels' minimum reach so the word
// stage, the byte stage and the scalar tail all execute.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add(pinnedBuf()[:7])
	f.Add(pinnedBuf()[:301])
	f.Add(pinnedBuf()[:2416]) // CRC-32 bulkMin
	f.Add(pinnedBuf()[:3001])
	f.Add(pinnedBuf()[:5000])
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range sparseParams() {
			tab := New(p)
			want := tab.finalizeReg(tab.updateScalar(tab.initReg(), data))
			for _, kn := range tab.Kernels() {
				k, _ := kernelByName(kn)
				if got := tab.finalizeReg(tab.kernelUpdate(k, tab.initReg(), data)); got != want {
					t.Fatalf("%s/%s: len=%d: %#x != scalar %#x", p.Name, kn, len(data), got, want)
				}
			}
			var std uint64
			switch p.Name {
			case "CRC-32":
				std = uint64(crc32.ChecksumIEEE(data))
			case "CRC-32C":
				std = uint64(crc32.Checksum(data, castagnoli))
			}
			if want != std {
				t.Fatalf("%s: len=%d: scalar %#x != hash/crc32 %#x", p.Name, len(data), want, std)
			}
		}
	})
}

// BenchmarkKernels times every engine a parameterization supports on
// MTU-sized and bulk input, side by side on the same hardware;
// internal/algo's BenchmarkSum times the engine each table raced to.
func BenchmarkKernels(b *testing.B) {
	for _, p := range sparseParams() {
		tab := New(p)
		for _, size := range []int{1500, 64 << 10} {
			data := pinnedBuf()[:size]
			for _, kn := range tab.Kernels() {
				k, _ := kernelByName(kn)
				b.Run(fmt.Sprintf("%s/%s/%d", p.Name, kn, size), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						raceSink ^= tab.kernelUpdate(k, tab.initReg(), data)
					}
				})
			}
		}
	}
}
