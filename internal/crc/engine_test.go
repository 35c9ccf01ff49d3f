package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sync"
	"testing"
)

// A Table advances its register with one of two kernels: slicing-by-8,
// which every entry point runs, and the byte-at-a-time scalar loop the
// tests hold it to.  TestSlicingMatchesScalarEverywhere and
// FuzzSlicingEquivalence compare the two directly; the tests here hold
// both to outside oracles (hash/crc32 and the bitwise reference) and pin
// the engine's concurrency and allocation contracts.
var kernels = []struct {
	name   string
	update func(t *Table, reg uint64, data []byte) uint64
}{
	{"slicing8", (*Table).updateSlicing},
	{"scalar", (*Table).updateScalar},
}

// pinnedBuf is 64 KiB + 64 of fixed splitmix64 output, so every test
// vector is reproducible across runs and machines.
var pinnedBuf = sync.OnceValue(func() []byte {
	b := make([]byte, 64<<10+64)
	s := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(b); i += 8 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
})

// stdlibCRC returns hash/crc32's value of data for p, which must be
// CRC32 or CRC32C.
func stdlibCRC(p Params, data []byte) uint64 {
	if p == CRC32C {
		return uint64(crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
	}
	return uint64(crc32.ChecksumIEEE(data))
}

// TestKernelsDifferentialOracle pins both kernels' CRC-32 and CRC-32C
// results to the standard library's hash/crc32 on random lengths from
// 0 to 64 KiB, sliding the data through all 8 alignments of the 8-byte
// step.
func TestKernelsDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	lengths := []int{0, 1, 7, 8, 9, 16, 48, 300, 316, 1500, 2416, 2500}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, rng.IntN(64<<10))
	}
	for _, p := range []Params{CRC32, CRC32C} {
		tab := New(p)
		for _, k := range kernels {
			for _, n := range lengths {
				for align := 0; align < 8; align++ {
					data := pinnedBuf()[align : align+n]
					got := tab.finalizeReg(k.update(tab, tab.initReg(), data))
					if std := stdlibCRC(p, data); got != std {
						t.Fatalf("%s/%s len=%d align=%d: %#x != hash/crc32 %#x", p.Name, k.name, n, align, got, std)
					}
				}
			}
		}
	}
}

// TestKernelShortInputs walks every length from 0 through 56 bytes —
// the 0–7 byte sub-word tail is the classic off-by-one surface for
// wide-word CRC engines — at every alignment, comparing both kernels
// against the table-free bitwise reference for every catalogued
// parameterization.
func TestKernelShortInputs(t *testing.T) {
	base := []byte("\x00\xff\x55\xaaThe quick brown fox jumps over the lazy dog 0123456789abcdef!!")
	for _, p := range Catalog() {
		tab := New(p)
		for _, k := range kernels {
			for n := 0; n <= 56; n++ {
				for align := 0; align < 8; align++ {
					data := base[align : align+n]
					want := p.BitwiseChecksum(data)
					if got := tab.finalizeReg(k.update(tab, tab.initReg(), data)); got != want {
						t.Fatalf("%s/%s len=%d align=%d: %#x != bitwise %#x", p.Name, k.name, n, align, got, want)
					}
				}
			}
		}
	}
}

// TestKernelSplitChaining checks that the raw register chains across
// split points: RawUpdate fed arbitrary chunk sizes, many of them past
// the 8-byte step and with ragged tails, agrees with the scalar oracle
// over the whole message.  algo's CRC Stride appends a message's tail
// with RawUpdate onto a register folded from block partials, so it
// relies on this continuity.
func TestKernelSplitChaining(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	data := pinnedBuf()[:20000]
	for _, p := range Catalog() {
		tab := New(p)
		want := tab.finalizeReg(tab.updateScalar(tab.initReg(), data))
		reg := tab.RawInit()
		for off := 0; off < len(data); {
			n := min(1+rng.IntN(4000), len(data)-off)
			reg = tab.RawUpdate(reg, data[off:off+n])
			off += n
		}
		if got := tab.RawCRC(reg); got != want {
			t.Errorf("%s: chained %#x != scalar %#x", p.Name, got, want)
		}
	}
}

// TestKernelZeroAlloc pins the hot-loop contract: checksumming and
// advancing a raw register allocate nothing at cell, MTU and bulk sizes.
func TestKernelZeroAlloc(t *testing.T) {
	for _, p := range Catalog() {
		tab := New(p)
		reg := tab.RawInit()
		for _, n := range []int{48, 1500, 64 << 10} {
			data := pinnedBuf()[:n]
			allocs := testing.AllocsPerRun(20, func() {
				benchSink ^= tab.Checksum(data)
				reg = tab.RawUpdate(reg, data)
			})
			if allocs > 0 {
				t.Errorf("%s n=%d: %.1f allocs per checksum, want 0", p.Name, n, allocs)
			}
		}
	}
}

// TestKernelConcurrent hammers one shared table from many goroutines
// (the registry's usage pattern: netsim workers share algo instances).
// Run under -race it checks that a built Table is read-only.
func TestKernelConcurrent(t *testing.T) {
	data := pinnedBuf()
	for _, p := range []Params{CRC32, CRC32C} {
		tab := New(p)
		want := tab.finalizeReg(tab.updateScalar(tab.initReg(), data))
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				for i := 0; i < 25; i++ {
					if got := tab.Checksum(data); got != want {
						done <- fmt.Errorf("%s: concurrent checksum %#x != %#x", p.Name, got, want)
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

// FuzzKernels compares both kernels on arbitrary input against
// hash/crc32 for CRC-32 and CRC-32C.  Seeds cover the empty input, the
// catalog check string, a sub-word tail, a PDU and inputs of a few KiB.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add(pinnedBuf()[:7])
	f.Add(pinnedBuf()[:301])
	f.Add(pinnedBuf()[:2416])
	f.Add(pinnedBuf()[:3001])
	f.Add(pinnedBuf()[:5000])
	tabs := []*Table{New(CRC32), New(CRC32C)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tab := range tabs {
			std := stdlibCRC(tab.Params(), data)
			for _, k := range kernels {
				if got := tab.finalizeReg(k.update(tab, tab.initReg(), data)); got != std {
					t.Fatalf("%s/%s: len=%d: %#x != hash/crc32 %#x", tab.Params().Name, k.name, len(data), got, std)
				}
			}
		}
	})
}
