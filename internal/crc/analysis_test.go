package crc

import (
	"math/rand/v2"
	"testing"

	"realsum/internal/gf2poly"
)

func TestAnalysisMatchesCatalogKnowledge(t *testing.T) {
	tests := []struct {
		p           Params
		oddErrors   bool
		irreducible bool
	}{
		{CRC32, false, true},  // primitive: no x+1 factor
		{CRC32C, true, false}, // (x+1)·primitive-31
		{CRC16, true, false},
		{CRC16CCITT, true, false},
		{CRC16XMODEM, true, false},
		{CRC10, true, false},
		{CRC8HEC, true, false},
		{CRC8, true, false},
	}
	for _, tc := range tests {
		g := tc.p.Generator()
		if got := gf2poly.DetectsOddErrors(g); got != tc.oddErrors {
			t.Errorf("%s: DetectsOddErrors = %v, want %v", tc.p.Name, got, tc.oddErrors)
		}
		if got := gf2poly.IsIrreducible(g); got != tc.irreducible {
			t.Errorf("%s: IsIrreducible = %v, want %v", tc.p.Name, got, tc.irreducible)
		}
		// Every burst of at most Width bits is detected: its error
		// polynomial x^k·e(x) has deg(e) < Width, which a degree-Width
		// generator with a nonzero constant term never divides.
		if !g.Bit(0) {
			t.Errorf("%s: generator has no +1 term", tc.p.Name)
		}
	}
}

func TestAnalysisPredictsEmpiricalOddErrorBehaviour(t *testing.T) {
	// The algebraic prediction must match what random odd-weight error
	// injection observes: algorithms with the x+1 factor never miss,
	// and CRC-32's generator itself is an odd-weight miss (verified in
	// properties_test.go).
	rng := rand.New(rand.NewPCG(20, 20))
	base := make([]byte, 128)
	for i := range base {
		base[i] = byte(rng.Uint32())
	}
	for _, p := range []Params{CRC32C, CRC16, CRC10, CRC8HEC} {
		if !gf2poly.DetectsOddErrors(p.Generator()) {
			t.Fatalf("%s should carry the x+1 factor", p.Name)
		}
		tab := New(p)
		orig := tab.Checksum(base)
		for trial := 0; trial < 3000; trial++ {
			weight := 1 + 2*rng.IntN(10)
			data := append([]byte{}, base...)
			seen := map[int]bool{}
			for len(seen) < weight {
				bit := rng.IntN(len(base) * 8)
				if !seen[bit] {
					seen[bit] = true
					data[bit/8] ^= 1 << uint(bit%8)
				}
			}
			if tab.Checksum(data) == orig {
				t.Fatalf("%s missed an odd-weight (%d) error despite the x+1 factor", p.Name, weight)
			}
		}
	}
}

// detects2BitWithin reports whether p detects every 2-bit error whose
// positions differ by at most spacing bits: x^d + 1 is a multiple of the
// generator exactly when the order of x modulo it divides d.
func detects2BitWithin(p Params, spacing uint64) bool {
	g := p.Generator()
	return g.Bit(0) && gf2poly.XOrder(g, spacing) == 0
}

func TestDetects2BitErrorsWithinPaperWindows(t *testing.T) {
	if !detects2BitWithin(CRC32, 2048) {
		t.Error("CRC-32 must detect 2-bit errors within the paper's 2048-bit window")
	}
	// CRC-16/CCITT order is 32767; confirm both sides of the boundary.
	if !detects2BitWithin(CRC16CCITT, 32766) {
		t.Error("CCITT within its order")
	}
	if detects2BitWithin(CRC16CCITT, 32767) {
		t.Error("CCITT beyond its order")
	}
}

func TestGeneratorDegreeMatchesWidth(t *testing.T) {
	for _, p := range Catalog() {
		if got := p.Generator().Degree(); got != int(p.Width) {
			t.Errorf("%s: generator degree %d != width %d", p.Name, got, p.Width)
		}
	}
}
