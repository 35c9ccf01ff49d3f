package gf2poly

import (
	"math/bits"
	"sort"
	"testing"
)

// censusGenerators is the polynomial-census slate in (width, Rocksoft
// normal poly) form — duplicated here from internal/crc rather than
// imported, so the algebra is pinned independently of the CRC engine.
var censusGenerators = []struct {
	name  string
	width uint8
	poly  uint64
}{
	{"CRC-32", 32, 0x04C11DB7},
	{"CRC-32C", 32, 0x1EDC6F41},
	{"CRC-32K", 32, 0x741B8CD7},
	{"CRC-32K2", 32, 0x32583499},
	{"CRC-24/A", 24, 0x864CFB},
	{"CRC-24/B", 24, 0x800063},
	{"CRC-24/C", 24, 0xB2B117},
	{"CRC-16/XMODEM", 16, 0x1021},
	{"CRC-11/NR", 11, 0x621},
	{"CRC-6/NR", 6, 0x21},
}

// TestXPowerResiduesMatchExpMod pins the packed-word residue fast path
// against the generic ExpMod square-and-multiply path.
func TestXPowerResiduesMatchExpMod(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		res := XPowerResidues(gen, 200)
		for i, r := range res {
			want := ExpMod(uint64(i), gen)
			got := Poly{}
			if r != 0 {
				got = FromWords([]uint64{r})
			}
			if !got.Equal(want) {
				t.Fatalf("%s: x^%d mod g: residues gave %v, ExpMod gave %v", g.name, i, got, want)
			}
		}
	}
}

// enumerated counts all weight-2 and weight-3 error polynomials over
// nBits ≤ 64 positions that g fails to detect, using the generic
// Poly.Mod path — a brute-force oracle independent of XPowerResidues.
func enumerated(g Poly, nBits int) (a2, a3 uint64) {
	for i := 0; i < nBits; i++ {
		for j := i + 1; j < nBits; j++ {
			e2 := Monomial(i).Add(Monomial(j))
			if e2.Mod(g).IsZero() {
				a2++
			}
			for k := j + 1; k < nBits; k++ {
				if e2.Add(Monomial(k)).Mod(g).IsZero() {
					a3++
				}
			}
		}
	}
	return a2, a3
}

// TestSpectrumMatchesExhaustiveEnumeration cross-checks the analytic A2
// and A3 counters against exhaustive enumeration of every weight-≤3
// error polynomial at message lengths up to 64 bits.  Short generators
// (CRC-6, CRC-11) actually have nonzero counts in this range, so the
// test exercises both the zero and nonzero paths.
func TestSpectrumMatchesExhaustiveEnumeration(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		for _, nBits := range []int{8, 33, 64} {
			wantA2, wantA3 := enumerated(gen, nBits)
			if gotA2 := UndetectedWeight2(gen, nBits); gotA2 != wantA2 {
				t.Errorf("%s nBits=%d: UndetectedWeight2 = %d, enumeration = %d", g.name, nBits, gotA2, wantA2)
			}
			if gotA3 := UndetectedWeight3(gen, nBits); gotA3 != wantA3 {
				t.Errorf("%s nBits=%d: UndetectedWeight3 = %d, enumeration = %d", g.name, nBits, gotA3, wantA3)
			}
		}
	}
}

// TestSpectrumRandomGenerators fuzzes the A2/A3 counters against the
// enumeration oracle over random generators, where residue collisions
// are plentiful: odd ones, then x^s·h ones (s = width gives x^width).
func TestSpectrumRandomGenerators(t *testing.T) {
	rng := splitmix(0x5eed)
	for trial := 0; trial < 100; trial++ {
		width := 2 + int(rng()%9) // degree 2..10: dense collision regime
		poly := (rng() | 1) & (1<<uint(width) - 1)
		if trial >= 40 {
			poly = poly << (rng() % uint64(width+1)) & (1<<uint(width) - 1)
		}
		gen := FromCRC(poly, uint8(width))
		nBits := 4 + int(rng()%45)
		wantA2, wantA3 := enumerated(gen, nBits)
		if gotA2 := UndetectedWeight2(gen, nBits); gotA2 != wantA2 {
			t.Fatalf("w=%d poly=%#x n=%d: A2 = %d, want %d", width, poly, nBits, gotA2, wantA2)
		}
		if gotA3 := UndetectedWeight3(gen, nBits); gotA3 != wantA3 {
			t.Fatalf("w=%d poly=%#x n=%d: A3 = %d, want %d", width, poly, nBits, gotA3, wantA3)
		}
	}
}

func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
}

// xOrderScan is the test oracle for XOrder: the packed-word residue
// recurrence stepped one power of x at a time up to limit.
func xOrderScan(g Poly, limit uint64) uint64 {
	if !g.Bit(0) {
		return 0
	}
	m := newModulus(g, "xOrderScan")
	r := uint64(1)
	for e := uint64(1); e <= limit; e++ {
		if r = m.mulX(r); r == 1 {
			return e
		}
	}
	return 0
}

// polyOrderScan is the same scan on the generic Poly arithmetic, an
// oracle independent of the packed-word modulus.
func polyOrderScan(p Poly, limit uint64) uint64 {
	if !p.Bit(0) {
		return 0
	}
	one := New(1).Mod(p)
	r := Monomial(1).Mod(p)
	for e := uint64(1); e <= limit; e++ {
		if r.Equal(one) {
			return e
		}
		r = MulMod(r, Monomial(1), p)
	}
	return 0
}

// weight3PairWalk is the test oracle for UndetectedWeight3: an
// O(n² log n) walk that, for each pair j < k, counts the earlier
// positions whose residue equals r_j ⊕ r_k.
func weight3PairWalk(g Poly, nBits int) uint64 {
	res := XPowerResidues(g, nBits)
	idx := make(map[uint64][]int, nBits)
	for i, r := range res {
		idx[r] = append(idx[r], i)
	}
	var a3 uint64
	for j := 1; j < nBits; j++ {
		rj := res[j]
		for k := j + 1; k < nBits; k++ {
			positions := idx[rj^res[k]]
			if len(positions) == 0 {
				continue
			}
			a3 += uint64(sort.SearchInts(positions, j))
		}
	}
	return a3
}

// TestXOrderMatchesOrderOfX pins the baby-step giant-step XOrder
// against both order-of-x scan oracles over random
// generators (dense collision regime, including degree 1 and
// x-divisible ones) at several limits, and over the census slate.
func TestXOrderMatchesOrderOfX(t *testing.T) {
	rng := splitmix(0xabc)
	for trial := 0; trial < 300; trial++ {
		width := 1 + int(rng()%12)
		poly := rng() & (1<<uint(width) - 1)
		if trial%4 != 0 {
			poly |= 1
		}
		gen := FromCRC(poly, uint8(width))
		for _, limit := range []uint64{0, 1, 2, 3, 9, 100, 1000, 5000} {
			want := polyOrderScan(gen, limit)
			if got := xOrderScan(gen, limit); got != want {
				t.Fatalf("w=%d poly=%#x limit=%d: xOrderScan=%d, polyOrderScan=%d", width, poly, limit, got, want)
			}
			if got := XOrder(gen, limit); got != want {
				t.Fatalf("w=%d poly=%#x limit=%d: XOrder=%d, scan=%d", width, poly, limit, got, want)
			}
		}
	}
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		for _, limit := range []uint64{4096, 1 << 16} {
			if got, want := XOrder(gen, limit), xOrderScan(gen, limit); got != want {
				t.Errorf("%s limit=%d: XOrder=%d, scan=%d", g.name, limit, got, want)
			}
		}
	}
}

// TestXOrderCensusHorizon pins XOrder against the scan oracle at the
// census's 2^24 horizon for every slate generator: the 24-bit family's
// full periods, and the 32-bit orders that lie beyond it.
func TestXOrderCensusHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("the scan walks up to 2^24 residues per generator")
	}
	const horizon = 1 << 24
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		if got, want := XOrder(gen, horizon), xOrderScan(gen, horizon); got != want {
			t.Errorf("%s: XOrder=%d, scan=%d", g.name, got, want)
		}
	}
}

// TestOrderOfXDegenerate pins XOrder at the edges of its domain: below
// degree 1 there is no modulus to take the order in (the zero polynomial
// and the constant 1 are not CRC generators), so XOrder panics, as it
// does above degree 64; x+1, the smallest modulus, gives order 1, and a
// limit of 0 finds no order.
func TestOrderOfXDegenerate(t *testing.T) {
	for _, g := range []Poly{{}, New(1), Monomial(65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("XOrder(%v) did not panic", g)
				}
			}()
			XOrder(g, 10)
		}()
	}
	if got := XOrder(New(0b11), 10); got != 1 {
		t.Errorf("order mod x+1 = %d", got)
	}
	if got := XOrder(New(0b11), 0); got != 0 {
		t.Errorf("order mod x+1 at limit 0 = %d", got)
	}
}

// TestOrderConsistency pins, for every census generator, the three
// statements of the same fact against each other: the order of x (the
// scan oracle, and XOrder), detects2Bit, and A2 (a 2-bit error
// at spacing d is undetected iff ord(x) divides d).
func TestOrderConsistency(t *testing.T) {
	const horizon = 1 << 16
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		ord := xOrderScan(gen, horizon)
		if got := XOrder(gen, horizon); got != ord {
			t.Errorf("%s: XOrder=%d, scan=%d", g.name, got, ord)
		}
		for _, nBits := range []int{64, 1024, 2048} {
			a2 := UndetectedWeight2(gen, nBits)
			maxSpacing := uint64(nBits - 1)
			detects := detects2Bit(gen, maxSpacing)
			if detects != (a2 == 0) {
				t.Errorf("%s nBits=%d: detects2Bit=%v but A2=%d", g.name, nBits, detects, a2)
			}
			if ord != 0 && ord <= maxSpacing {
				// Closed form: Σ over multiples m of ord with m ≤ nBits−1
				// of (nBits − m) undetected pairs.
				var want uint64
				for m := ord; m <= maxSpacing; m += ord {
					want += uint64(nBits) - m
				}
				if a2 != want {
					t.Errorf("%s nBits=%d: A2=%d, order closed form gives %d (ord=%d)", g.name, nBits, a2, want, ord)
				}
			} else if a2 != 0 {
				t.Errorf("%s nBits=%d: ord(x) > %d yet A2=%d", g.name, nBits, horizon, a2)
			}
		}
	}
}

// TestWeight3MatchesPairWalk pins the linear A3 against the pair-walk
// oracle at the census length for every slate generator.
func TestWeight3MatchesPairWalk(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		if got, want := UndetectedWeight3(gen, 2048), weight3PairWalk(gen, 2048); got != want {
			t.Errorf("%s: UndetectedWeight3=%d, pair walk=%d", g.name, got, want)
		}
	}
}

// TestBurstFraction pins the closed-form burst coverage against direct
// enumeration of every burst pattern at small widths: a burst of exact
// span b is x^i·(1 + interior + x^(b−1)), undetected iff divisible by g.
func TestBurstFraction(t *testing.T) {
	for _, g := range []struct {
		width uint8
		poly  uint64
	}{{6, 0x21}, {8, 0x07}, {10, 0x233}} {
		gen := FromCRC(g.poly, g.width)
		w := gen.Degree()
		for b := 2; b <= w+3; b++ {
			interiorBits := b - 2
			total := uint64(1) << uint(interiorBits)
			var undetected uint64
			for interior := uint64(0); interior < total; interior++ {
				e := Monomial(0).Add(Monomial(b - 1))
				for i := 0; i < interiorBits; i++ {
					if interior>>uint(i)&1 == 1 {
						e = e.Add(Monomial(i + 1))
					}
				}
				if e.Mod(gen).IsZero() {
					undetected++
				}
			}
			got := UndetectedBurstFraction(gen, b)
			want := float64(undetected) / float64(total)
			if got != want {
				t.Errorf("w=%d b=%d: UndetectedBurstFraction=%g, enumeration=%g (%d/%d)", w, b, got, want, undetected, total)
			}
		}
	}
}

// TestCensusGeneratorProperties pins the algebraic profile of each
// census generator: degree, (x+1) divisibility, and that the Koopman
// polynomials differ from IEEE in exactly the way they were selected
// for (order of x, hence 2-bit coverage horizon).
func TestCensusGeneratorProperties(t *testing.T) {
	for _, g := range censusGenerators {
		gen := FromCRC(g.poly, g.width)
		if got := gen.Degree(); got != int(g.width) {
			t.Errorf("%s: degree %d, want %d", g.name, got, g.width)
		}
		if gen.Weight()%2 == 0 != DetectsOddErrors(gen) {
			// (x+1) | g iff g has even weight.
			t.Errorf("%s: odd-error coverage disagrees with weight parity (weight %d)", g.name, gen.Weight())
		}
		if bits.OnesCount64(g.poly)+1 != gen.Weight() {
			t.Errorf("%s: FromCRC dropped terms: poly weight %d+1, generator weight %d", g.name, bits.OnesCount64(g.poly), gen.Weight())
		}
	}
}
