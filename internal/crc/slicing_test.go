package crc

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"testing"
)

// pinnedLengths covers the engine's seams: every length through 64
// bytes (each sub-word tail and the first 8-byte steps), byte-table
// sizes, an Ethernet MTU, the reach of the deleted fold kernels
// (1688 B for CRC-32C, 2416 B for CRC-32) one byte at a time, a page
// and 64 KiB of bulk.
func pinnedLengths() []int {
	var ls []int
	for n := 0; n <= 64; n++ {
		ls = append(ls, n)
	}
	ls = append(ls, 255, 256, 1500)
	for n := 1687; n <= 1704; n++ {
		ls = append(ls, n)
	}
	for n := 2415; n <= 2432; n++ {
		ls = append(ls, n)
	}
	return append(ls, 4096, 64<<10)
}

// engineParams lists every catalogued parameterization plus one
// unreflected, zero-preset generic CRC of each width 1–64.
func engineParams() []Params {
	ps := Catalog()
	for w := uint8(1); w <= 64; w++ {
		// Any odd poly of the width will do; take the top w bits of the
		// golden-ratio constant so every width gets a dense one.
		ps = append(ps, MakeParams(w, uint64(0x9E3779B97F4A7C15)>>(64-w)|1))
	}
	return ps
}

// TestSlicingMatchesScalarEverywhere holds the production engine to the
// scalar oracle for every catalogued parameterization and every generic
// width, over the pinned lengths at all 8 alignments of the 8-byte
// step, from the initial register and from a register part-way through
// a message.
func TestSlicingMatchesScalarEverywhere(t *testing.T) {
	buf := pinnedBuf()
	lengths := pinnedLengths()
	for _, p := range engineParams() {
		tab := New(p)
		regs := [2]uint64{tab.initReg(), tab.updateScalar(tab.initReg(), buf[:17])}
		for _, n := range lengths {
			for align := 0; align < 8; align++ {
				data := buf[align : align+n]
				for _, reg := range regs {
					if got, want := tab.updateSlicing(reg, data), tab.updateScalar(reg, data); got != want {
						t.Fatalf("%s width %d: len=%d align=%d reg=%#x: slicing %#x != scalar %#x",
							p.Name, p.Width, n, align, reg, got, want)
					}
				}
			}
		}
	}
}

func TestSlicingCRC32AgainstStdlibBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31))
	tab := New(CRC32)
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if got, want := uint32(tab.Checksum(data)), crc32.ChecksumIEEE(data); got != want {
		t.Fatalf("1 MiB: ours %#08x, stdlib %#08x", got, want)
	}
}

// BenchmarkSlicingVsScalar times the production engine against the
// scalar oracle on MTU-sized and bulk input.
func BenchmarkSlicingVsScalar(b *testing.B) {
	for _, p := range []Params{CRC32, CRC32C} {
		tab := New(p)
		for _, size := range []int{1500, 64 << 10} {
			data := pinnedBuf()[:size]
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/%s/%d", p.Name, k.name, size), func(b *testing.B) {
					b.SetBytes(int64(size))
					reg := tab.initReg()
					for i := 0; i < b.N; i++ {
						reg = k.update(tab, reg, data)
					}
					benchSink = reg
				})
			}
		}
	}
}

var benchSink uint64
