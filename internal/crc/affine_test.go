package crc

import (
	"math/rand/v2"
	"testing"
)

// affineParams covers both register alignments (reflected and
// left-aligned) and a spread of widths.
var affineParams = []Params{CRC32, CRC32C, CRC10, CRC16, CRC16CCITT, CRC16XMODEM, CRC8HEC, CRC64}

func TestRawShiftMatchesZeroUpdate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	lens := []int{0, 1, 2, 7, 8, 44, 48, 511, 512, 513, 1000, 4096}
	for _, p := range affineParams {
		tab := New(p)
		reg := tab.RawInit()
		for _, n := range lens {
			zeros := make([]byte, n)
			if got, want := tab.RawShift(reg, n), tab.RawUpdate(reg, zeros); got != want {
				t.Errorf("%s: RawShift(init, %d) = %#x, want %#x", p.Name, n, got, want)
			}
			// Also from a data-derived register.
			msg := make([]byte, 37)
			for i := range msg {
				msg[i] = byte(rng.Uint32())
			}
			r2 := tab.RawUpdate(reg, msg)
			if got, want := tab.RawShift(r2, n), tab.RawUpdate(r2, zeros); got != want {
				t.Errorf("%s: RawShift(reg, %d) = %#x, want %#x", p.Name, n, got, want)
			}
		}
	}
}

func TestRawFromCRCInvertsRawCRC(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for _, p := range affineParams {
		tab := New(p)
		msg := make([]byte, 64)
		for trial := 0; trial < 8; trial++ {
			for i := range msg {
				msg[i] = byte(rng.Uint32())
			}
			reg := tab.RawUpdate(tab.RawInit(), msg)
			crc := tab.RawCRC(reg)
			if back := tab.RawFromCRC(crc); back != reg {
				t.Errorf("%s: RawFromCRC(RawCRC(%#x)) = %#x", p.Name, reg, back)
			}
			if crc != tab.Checksum(msg) {
				t.Errorf("%s: raw pipeline disagrees with Checksum", p.Name)
			}
		}
	}
}

// TestSlotContribsDecomposition is the identity the splice fast path
// rests on: base ⊕ Σ contrib[slot] equals the register of the whole
// message, for every algorithm and assorted geometries.
func TestSlotContribsDecomposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	type geom struct{ slots, stride, tail int }
	geoms := []geom{
		{1, 48, 44}, {6, 48, 44}, {3, 48, 0}, {5, 17, 9}, {2, 48, 48},
	}
	for _, p := range affineParams {
		tab := New(p)
		for _, g := range geoms {
			total := g.slots*g.stride + g.tail
			msg := make([]byte, total)
			for i := range msg {
				msg[i] = byte(rng.Uint32())
			}
			base := tab.RawShift(tab.RawInit(), total)
			if g.tail > 0 {
				base ^= tab.RawUpdate(0, msg[g.slots*g.stride:])
			}
			acc := base
			contrib := make([]uint64, g.slots)
			stride, tail := tab.NewShift(g.stride), tab.NewShift(g.tail)
			for s := 0; s < g.slots; s++ {
				cell := msg[s*g.stride : s*g.stride+g.stride]
				tab.SlotContribs(contrib, cell, stride, tail)
				// SlotContribs fills every slot's contribution for this
				// cell; pick the one where the cell actually sits.
				acc ^= contrib[s]
			}
			want := tab.RawUpdate(tab.RawInit(), msg)
			if acc != want {
				t.Errorf("%s: geom %+v: affine register %#x, want %#x", p.Name, g, acc, want)
			}
			if tab.RawCRC(acc) != tab.Checksum(msg) {
				t.Errorf("%s: geom %+v: finalized CRC mismatch", p.Name, g)
			}
		}
	}
}

// TestSlotContribsAgainstScalar pins each contribution to its
// first-principles definition: the scalar oracle run over the cell
// followed by the explicit zero bytes that come after its slot.
func TestSlotContribsAgainstScalar(t *testing.T) {
	tab := New(CRC32)
	cell := []byte("forty-eight bytes of cell payload, more or less!")[:48]
	const slots, stride, tail = 6, 48, 44
	var got [slots]uint64
	tab.SlotContribs(got[:], cell, tab.NewShift(stride), tab.NewShift(tail))
	for s := 0; s < slots; s++ {
		after := (slots-1-s)*stride + tail
		want := tab.updateScalar(tab.updateScalar(0, cell), make([]byte, after))
		if got[s] != want {
			t.Errorf("slot %d: contrib %#x, want %#x", s, got[s], want)
		}
	}
}

func BenchmarkSlotContribs(b *testing.B) {
	tab := New(CRC32)
	cell := make([]byte, 48)
	for i := range cell {
		cell[i] = byte(i * 7)
	}
	var dst [6]uint64
	stride, tail := tab.NewShift(48), tab.NewShift(44)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.SlotContribs(dst[:], cell, stride, tail)
	}
}

// TestShiftMatchesRawShift pins the byte-table operator against
// RawShift for both register alignments, every catalogued width and a
// spread of shift lengths, on random valid registers.
func TestShiftMatchesRawShift(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for _, p := range append(Catalog(), affineParams...) {
		tab := New(p)
		for _, n := range []int{0, 1, 7, 44, 48, 96, 600} {
			s := tab.NewShift(n)
			for trial := 0; trial < 64; trial++ {
				msg := make([]byte, 1+trial)
				for i := range msg {
					msg[i] = byte(rng.Uint32())
				}
				reg := tab.RawUpdate(tab.RawInit(), msg)
				if got, want := s.Apply(reg), tab.RawShift(reg, n); got != want {
					t.Fatalf("%s: Shift(%d).Apply(%#x) = %#x, want %#x", p.Name, n, reg, got, want)
				}
				// The fold identity the operator exists for, on partials
				// that fit the register's width.
				block := msg[:min(len(msg), n)]
				if len(block) == n {
					part := tab.RawPartial(block)
					if p.Width < 64 && part>>p.Width != 0 {
						t.Fatalf("%s: RawPartial %#x exceeds %d bits", p.Name, part, p.Width)
					}
					if got, want := s.Fold(reg, part), tab.RawUpdate(reg, block); got != want {
						t.Fatalf("%s: Fold(reg, RawPartial(B)) = %#x, want RawUpdate(reg,B) = %#x", p.Name, got, want)
					}
				}
			}
		}
	}
}

// TestDeltaPatchMatchesPartial holds Delta.Patch to a direct RawPartial
// at block lengths that end on and off an 8-byte word, up to
// MaxDeltaLen, whose last nibble row fills a Nibbles entry's 12 row
// bits, for damage from one flipped bit up to a whole rewrite.  A
// longer Delta, or a difference of longer blocks, is refused.
func TestDeltaPatchMatchesPartial(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for _, p := range affineParams {
		tab := New(p)
		for _, n := range []int{0, 1, 7, 8, 48, 50, MaxDeltaLen} {
			d := tab.NewDelta(n)
			for _, hits := range []int{1, 2, 5, 40, 4 * n} {
				old := make([]byte, n)
				for i := range old {
					old[i] = byte(rng.Uint32())
				}
				damaged := append([]byte{}, old...)
				for h := 0; h < hits && n > 0; h++ {
					damaged[rng.IntN(n)] ^= byte(1 + rng.IntN(255))
				}
				diff := AppendNibbles(nil, old, damaged)
				if n == MaxDeltaLen {
					// Hit the last byte's high nibble: row 2·MaxDeltaLen − 1.
					damaged[n-1] = old[n-1] ^ 0x80
					diff = AppendNibbles(nil, old, damaged)
				}
				if got, want := d.Patch(tab.RawPartial(old), diff), tab.RawPartial(damaged); got != want {
					t.Errorf("%s n=%d hits=%d: patched %#x, direct %#x", p.Name, n, hits, got, want)
				}
			}
		}
	}
	long := make([]byte, MaxDeltaLen+1)
	for name, f := range map[string]func(){
		"NewDelta":      func() { New(affineParams[0]).NewDelta(MaxDeltaLen + 1) },
		"AppendNibbles": func() { AppendNibbles(nil, long, long) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over %d bytes did not panic", name, MaxDeltaLen+1)
				}
			}()
			f()
		}()
	}
}
