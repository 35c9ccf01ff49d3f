package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"strings"
	"testing"
)

// randomPMF returns the PMF of support draws of bins of ℤ/m, each
// adding an integer weight in [1, maxW] — exact, like every PMF the
// paper passes build.
func randomPMF(rng *rand.Rand, m, support int, maxW uint64) PMF {
	counts := make([]uint64, m)
	for range support {
		counts[rng.IntN(m)] += 1 + rng.Uint64N(maxW)
	}
	return fromCounts(counts)
}

func TestConvolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.IntN(40)
		a := randomPMF(rng, m, 1+rng.IntN(m), 1000)
		b := randomPMF(rng, m, 1+rng.IntN(m), 1000)
		got := a.Convolve(b)
		want := NewPMF(m)
		for x := 0; x < m; x++ {
			for y := 0; y < m; y++ {
				want.P[(x+y)%m] += a.P[x] * b.P[y]
			}
		}
		for v := 0; v < m; v++ {
			if math.Abs(got.P[v]-want.P[v]) > 1e-12 {
				t.Fatalf("m=%d v=%d: %v != %v", m, v, got.P[v], want.P[v])
			}
		}
	}
}

// The exact oracle: the textbook convolution loop over the integer
// numerators in 128-bit words, failing rather than wrapping, then one
// big.Rat rounding per bin.  It shares no arithmetic with the kernel.

// wide is an oracle numerator.
type wide struct{ hi, lo uint64 }

func (w wide) big() *big.Int {
	x := new(big.Int).SetUint64(w.hi)
	return x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(w.lo))
}

// addProduct adds a·b to w and reports whether the sum fits 128 bits.
func (w *wide) addProduct(a, b wide) bool {
	if a.hi != 0 && b.hi != 0 {
		return false
	}
	hi, lo := bits.Mul64(a.lo, b.lo)
	h1, l1 := bits.Mul64(a.hi, b.lo)
	h2, l2 := bits.Mul64(a.lo, b.hi)
	hi, c1 := bits.Add64(hi, l1, 0)
	hi, c2 := bits.Add64(hi, l2, 0)
	var c3, c4 uint64
	w.lo, c3 = bits.Add64(w.lo, lo, 0)
	w.hi, c4 = bits.Add64(w.hi, hi, c3)
	return h1|h2|c1|c2|c4 == 0
}

// numerators returns p's exact numerators as oracle values.
func numerators(p PMF) []wide {
	out := make([]wide, p.M)
	for c := range out {
		x := p.numAt(c)
		out[c] = wide{x.hi, x.lo}
	}
	return out
}

// numAt returns bin c's exact numerator.
func (p PMF) numAt(c int) u128 {
	switch {
	case p.num == nil:
		return u128{0, uint64(math.Round(p.P[c] * float64(p.den.lo)))}
	case p.numHi == nil:
		return u128{0, p.num[c]}
	}
	return u128{p.numHi[c], p.num[c]}
}

// refConvolve is the textbook loop: for every nonzero q[x] and p[v],
// add p[v]·q[x] into out[(v+x) mod M].
func refConvolve(t testing.TB, p, q []wide) []wide {
	t.Helper()
	m := len(p)
	var support []int
	for v, pv := range p {
		if pv != (wide{}) {
			support = append(support, v)
		}
	}
	out := make([]wide, m)
	for x, qx := range q {
		if qx == (wide{}) {
			continue
		}
		for _, v := range support {
			pv := p[v]
			c := v + x
			if c >= m {
				c -= m
			}
			if !out[c].addProduct(pv, qx) {
				t.Fatalf("oracle overflow at bin %d", c)
			}
		}
	}
	return out
}

// checkExact fails unless got carries exactly the numerators num over
// their sum, and every bin of got.P is num/Σnum rounded once (through
// big.Rat), bit for bit.
func checkExact(t *testing.T, name string, got PMF, num []wide) {
	t.Helper()
	if got.M != len(num) || len(got.P) != len(num) {
		t.Fatalf("%s: modulus %d/%d bins, want %d", name, got.M, len(got.P), len(num))
	}
	den := new(big.Int)
	for _, x := range num {
		den.Add(den, x.big())
	}
	if g := (wide{got.den.hi, got.den.lo}).big(); g.Cmp(den) != 0 {
		t.Fatalf("%s: denominator %v, want %v", name, g, den)
	}
	var r big.Rat
	for c, x := range num {
		if n := got.numAt(c); n.hi != x.hi || n.lo != x.lo {
			t.Fatalf("%s: bin %d numerator %v, want %v", name, c, wide{n.hi, n.lo}.big(), x.big())
		}
		want := 0.0
		if den.Sign() != 0 {
			want, _ = r.SetFrac(x.big(), den).Float64()
		}
		if math.Float64bits(got.P[c]) != math.Float64bits(want) {
			t.Fatalf("%s: bin %d = %v (%#x), exact %v (%#x)", name, c,
				got.P[c], math.Float64bits(got.P[c]), want, math.Float64bits(want))
		}
	}
}

// densityPMF returns a PMF over ℤ/m whose bins are each nonzero with
// probability density (at least one bin is), with integer weights in
// [1, 2^20].
func densityPMF(rng *rand.Rand, m int, density float64) PMF {
	counts := make([]uint64, m)
	counts[rng.IntN(m)] = 1
	for i := range counts {
		if rng.Float64() < density {
			counts[i] = 1 + rng.Uint64N(1<<20)
		}
	}
	return fromCounts(counts)
}

// TestConvolveMatchesReference holds the kernel to the exact oracle at
// small moduli, at densities from sparse to full support, and at the
// paper's ℤ/65535 against a sparse single-cell-like PMF.  The weights
// put the larger denominators past one prime.
func TestConvolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	densities := []float64{0.01, 0.3, 1}
	check := func(name string, p, q PMF) {
		t.Helper()
		checkExact(t, name, p.Convolve(q), refConvolve(t, numerators(p), numerators(q)))
	}
	for _, m := range []int{1, 2, 3, 255, 256, 2047, 4097} {
		for _, dp := range densities {
			for _, dq := range densities {
				check(fmt.Sprintf("M=%d p%.0f%%⊛q%.0f%%", m, 100*dp, 100*dq), densityPMF(rng, m, dp), densityPMF(rng, m, dq))
			}
		}
		point, uniform := PointPMF(m, m/2), UniformPMF(m)
		check(fmt.Sprintf("M=%d point⊛uniform", m), point, uniform)
		check(fmt.Sprintf("M=%d uniform⊛point", m), uniform, point)
		check(fmt.Sprintf("M=%d uniform⊛uniform", m), uniform, uniform)
	}
	if raceEnabled {
		t.Log("skipping the M=65535 cases under -race")
		return
	}
	sparse := densityPMF(rng, 65535, 0.01)
	for _, d := range densities {
		p := densityPMF(rng, 65535, d)
		check(fmt.Sprintf("M=65535 p%.0f%%⊛sparse", 100*d), p, sparse)
		check(fmt.Sprintf("M=65535 sparse⊛p%.0f%%", 100*d), sparse, p)
	}
	check("M=65535 sparse⊛sparse", sparse, sparse)
}

// TestConvolveChainedPowers runs the Table 4 chain p₁ → p₁^⊛5, four
// Convolve calls, against the oracle's counts^⊛k at every step.  Its
// single-cell PMF has ~30% of its bins filled and N ≈ 6·10^4 counts, so
// the denominators N^k cross from one prime to two on the way.
func TestConvolveChainedPowers(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	counts := make([]uint64, 4097)
	for i := range counts {
		if rng.IntN(10) < 3 {
			counts[i] = 1 + rng.Uint64N(99)
		}
	}
	p1 := fromCounts(counts)
	one := numerators(p1)
	pk, want := p1, one
	for k := 2; k <= 5; k++ {
		pk = pk.Convolve(p1)
		want = refConvolve(t, one, want)
		checkExact(t, fmt.Sprintf("k=%d", k), pk, want)
	}
	if pk.den.less(primeProduct(1)) {
		t.Errorf("denominator %v never needed the second prime", wide{pk.den.hi, pk.den.lo}.big())
	}
}

// TestConvolveWidestPath forces both primes near their bound: the
// inputs' denominators N ≈ 2^61.9 make N² just below the product of the
// primes, with bins at the top of the range CRT recovers.
func TestConvolveWidestPath(t *testing.T) {
	bound := new(big.Int).Mul(new(big.Int).SetUint64(nttPrimes[0].p), new(big.Int).SetUint64(nttPrimes[1].p))
	n := new(big.Int).Sqrt(bound).Uint64() - 1
	for _, counts := range [][]uint64{
		{n - 10, 3, 7},
		{1, 0, 0, n - 1},
		{n/2 + 1, n - n/2 - 1, 0, 0, 0},
	} {
		p := fromCounts(counts)
		if p.den.less(u128{0, n}) || !p.den.less(u128{0, n + 1}) {
			t.Fatalf("%v: denominator %d, want %d", counts, p.den.lo, n)
		}
		got := p.Convolve(p)
		if got.den.less(primeProduct(1)) {
			t.Fatalf("%v: denominator below the first prime", counts)
		}
		checkExact(t, fmt.Sprint(counts), got, refConvolve(t, numerators(p), numerators(p)))
	}
	// An input whose numerators pass 64 bits: N = 2^40, squared, then
	// against N = 2^21 + 7 (denominator ≈ 2^101).
	p := fromCounts([]uint64{1<<39 + 5, 3, 1<<39 - 8, 0, 0, 0, 0})
	p2 := p.Convolve(p)
	if p2.numHi == nil {
		t.Fatal("N² = 2^80 should store high words")
	}
	q := fromCounts([]uint64{1 << 20, 0, 7, 1<<20 - 1, 1, 0, 0})
	checkExact(t, "2^80 ⊛ 2^21", p2.Convolve(q), refConvolve(t, numerators(p2), numerators(q)))
}

// TestConvolvePanics checks the named panics: an output denominator at
// or past the primes' product (and past 128 bits), a PMF without exact
// numerators, and mismatched moduli.
func TestConvolvePanics(t *testing.T) {
	big62 := fromCounts([]uint64{1 << 61, 1 << 61, 0}) // N = 2^62: N² = 2^124 > p₀·p₁
	n40 := fromCounts([]uint64{1 << 39, 1 << 39, 0})   // N = 2^40
	n80 := n40.Convolve(n40)                           // 2^80: fine
	for _, tc := range []struct {
		name string
		f    func()
		msg  string
	}{
		{"past the primes", func() { big62.Convolve(big62) }, "exceeds the exact bound"},
		{"past 128 bits", func() { n80.Convolve(n80) }, "exceeds the exact bound"},
		{"no exact form", func() { NewPMF(3).Convolve(n40) }, "needs exact numerators"},
		{"no exact form (q)", func() { n40.Convolve(NewPMF(3)) }, "needs exact numerators"},
		{"moduli", func() { n40.Convolve(UniformPMF(4)) }, "modulus mismatch"},
	} {
		if got := panicMessage(tc.f); !strings.Contains(got, tc.msg) {
			t.Errorf("%s: panic %q, want one containing %q", tc.name, got, tc.msg)
		}
	}
}

// panicMessage runs f and returns the value it panicked with, "" if it
// returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestFromHistogramExactAtK1: the single-cell PMF is still the plain
// float64(c)/float64(N) in every bin, bit for bit.
func TestFromHistogramExactAtK1(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	h := NewHistogram()
	for range 200_000 {
		h.Add(uint16(rng.NormFloat64()*3000 + 30000))
	}
	p := FromHistogram(h)
	n := float64(h.Total())
	for v := range p.P {
		if want := float64(h.Count(uint16(v))) / n; math.Float64bits(p.P[v]) != math.Float64bits(want) {
			t.Fatalf("bin %d = %v, want %v", v, p.P[v], want)
		}
	}
	if empty := FromHistogram(NewHistogram()); empty.PMax() != 0 || empty.Convolve(empty).PMax() != 0 {
		t.Error("an empty histogram should give the all-zero PMF, and so should its convolution")
	}
}

// TestRatioRoundsOnce holds ratio to big.Rat on random 128-bit
// fractions and on exact halfway cases, where round-half-to-even
// decides.
func TestRatioRoundsOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	check := func(n, d u128) {
		t.Helper()
		want, _ := new(big.Rat).SetFrac(wide{n.hi, n.lo}.big(), wide{d.hi, d.lo}.big()).Float64()
		if got := ratio(n, d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v/%v = %v, want %v", wide{n.hi, n.lo}.big(), wide{d.hi, d.lo}.big(), got, want)
		}
	}
	for range 20000 {
		d := u128{rng.Uint64() >> rng.IntN(64), rng.Uint64()}
		if d == (u128{}) {
			continue
		}
		n := u128{rng.Uint64(), rng.Uint64()}
		if s := rng.UintN(128); s > 0 { // n ≤ d, at every magnitude
			n = u128{d.hi, d.lo}
			for range s {
				n = u128{n.hi >> 1, n.hi<<63 | n.lo>>1}
			}
			n.lo -= min(n.lo, rng.Uint64N(3))
		} else if d.less(n) {
			n = d
		}
		check(n, d)
	}
	// 54-bit odd numerators over powers of two: every one a tie.
	for _, e := range []uint{60, 64, 100, 123} {
		for range 100 {
			n := u128{0, 1<<53 | rng.Uint64N(1<<53) | 1}
			check(n, u128{0, 1}.shl(e))
		}
	}
}

// fuzzCounts decodes a modulus and two count vectors from fuzz input:
// two bytes of modulus (1..5000), one fill byte (bit 0 gives p, bit 1
// gives q a count of 1 in every bin), then 4-byte records — select bit
// and binary exponent (0..40), 16-bit bin, mantissa byte — each adding
// (mantissa+1)·2^exponent to one bin of p or q.  A record that would
// overflow its bin's 64-bit count is dropped.
func fuzzCounts(data []byte) (p, q []uint64, ok bool) {
	if len(data) < 3 {
		return nil, nil, false
	}
	m := 1 + int(binary.LittleEndian.Uint16(data))%5000
	p, q = make([]uint64, m), make([]uint64, m)
	for i, dst := range [][]uint64{p, q} {
		if data[2]>>i&1 != 0 {
			for c := range dst {
				dst[c] = 1
			}
		}
	}
	for rec := data[3:]; len(rec) >= 4; rec = rec[4:] {
		dst := p
		if rec[0]&0x80 != 0 {
			dst = q
		}
		v := (uint64(rec[3]) + 1) << (rec[0] & 0x3f % 41)
		c := int(binary.LittleEndian.Uint16(rec[1:])) % m
		if sum, carry := bits.Add64(dst[c], v, 0); carry == 0 {
			dst[c] = sum
		}
	}
	return p, q, true
}

// FuzzConvolveMatchesReference holds the kernel to the exact oracle on
// fuzzed moduli and counts; where the output denominator reaches the
// primes' product, Convolve must panic with its bound message instead.
func FuzzConvolveMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x01, 0, 0, 7, 0x81, 0, 0, 9})
	f.Add([]byte{0xff, 0x07, 1, 0x85, 0xff, 0x07, 200, 0x83, 0x01, 0x00, 3})
	f.Add([]byte{0x00, 0x08, 2, 0x02, 0xfe, 0x07, 1, 0x04, 0x01, 0x08, 99})
	f.Add([]byte{0x02, 0x10, 3, 0x28, 0x00, 0x10, 0xff, 0xa8, 0x00, 0x00, 0xff, 0x27, 0x01, 0x00, 0x80})
	bound := new(big.Int).Mul(new(big.Int).SetUint64(nttPrimes[0].p), new(big.Int).SetUint64(nttPrimes[1].p))
	f.Fuzz(func(t *testing.T, data []byte) {
		pc, qc, ok := fuzzCounts(data)
		if !ok {
			return
		}
		p, q := fromCounts(pc), fromCounts(qc)
		den := new(big.Int).Mul(wide{p.den.hi, p.den.lo}.big(), wide{q.den.hi, q.den.lo}.big())
		if den.Cmp(bound) >= 0 {
			if msg := panicMessage(func() { p.Convolve(q) }); !strings.Contains(msg, "exceeds the exact bound") {
				t.Fatalf("M=%d denominator %v: panic %q, want the bound panic", p.M, den, msg)
			}
			return
		}
		checkExact(t, fmt.Sprintf("M=%d", p.M), p.Convolve(q), refConvolve(t, numerators(p), numerators(q)))
	})
}

// BenchmarkConvolve times one ℤ/65535 convolution in the shapes the
// paper passes run, with a single-cell PMF of ~19.5k of 65535 bins and
// N ≈ 59k cells, as on Stanford /u1 at full scale: sparse⊛sparse
// (Figure 2's k = 2 prediction, the single-cell PMF with itself: one
// prime, one forward transform) and dense⊛sparse (Table 4's last step,
// p₁^⊛4 ⊛ p₁: two primes, two forward transforms each).
func BenchmarkConvolve(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	counts := make([]uint64, 65535)
	for i := range counts {
		if rng.Float64() < 0.3 {
			counts[i] = 1 + rng.Uint64N(5)
		}
	}
	single := fromCounts(counts)
	p2 := single.Convolve(single)
	dense := p2.Convolve(p2)
	for _, bc := range []struct {
		name string
		p, q PMF
	}{{"sparse*sparse", single, single}, {"dense*sparse", dense, single}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				convolveSink = bc.p.Convolve(bc.q)
			}
		})
	}
}

var convolveSink PMF

func TestConvolvePreservesMass(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := randomPMF(rng, 255, 50, 1000)
	b := randomPMF(rng, 255, 50, 1000)
	c := a.Convolve(b)
	if m := c.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Errorf("mass after convolve = %v", m)
	}
}

// TestConvolvePowMatchesRepeated: binary powering and repeated
// convolution reach the same rational, so the exact kernel gives the
// same bits either way.
func TestConvolvePowMatchesRepeated(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	p := randomPMF(rng, 100, 10, 1000)
	byPow := p.ConvolvePow(5)
	byRep := p
	for i := 1; i < 5; i++ {
		byRep = byRep.Convolve(p)
	}
	for v := 0; v < 100; v++ {
		if math.Float64bits(byPow.P[v]) != math.Float64bits(byRep.P[v]) {
			t.Fatalf("v=%d: pow %v != repeated %v", v, byPow.P[v], byRep.P[v])
		}
	}
	one := p.ConvolvePow(1)
	for v := range p.P {
		if math.Float64bits(one.P[v]) != math.Float64bits(p.P[v]) {
			t.Fatal("ConvolvePow(1) != identity")
		}
	}
}

func TestPointAndUniform(t *testing.T) {
	u := UniformPMF(10)
	if math.Abs(u.PMax()-0.1) > 1e-12 || math.Abs(u.PMin()-0.1) > 1e-12 {
		t.Error("uniform PMF not flat")
	}
	pt := PointPMF(10, 13) // 13 mod 10 = 3
	if pt.P[3] != 1 {
		t.Error("PointPMF wraps wrong")
	}
	neg := PointPMF(10, -1)
	if neg.P[9] != 1 {
		t.Error("PointPMF negative wraps wrong")
	}
	// Convolving with a point mass shifts.
	got := pt.Convolve(PointPMF(10, 4))
	if got.P[7] != 1 {
		t.Error("point+point shift wrong")
	}
}

func TestFromHistogramRoundTrip(t *testing.T) {
	h := NewHistogram()
	h.AddN(100, 3)
	h.AddN(0xFFFF, 1) // folds to 0
	p := FromHistogram(h)
	if p.M != 65535 {
		t.Fatalf("M = %d", p.M)
	}
	if math.Abs(p.P[100]-0.75) > 1e-12 || math.Abs(p.P[0]-0.25) > 1e-12 {
		t.Errorf("P[100]=%v P[0]=%v", p.P[100], p.P[0])
	}
	if m := p.TotalMass(); math.Abs(m-1) > 1e-12 {
		t.Errorf("mass %v", m)
	}
}

func TestSelfMatchAndOffsetMatch(t *testing.T) {
	p := NewPMF(4)
	p.P[0], p.P[1] = 0.75, 0.25
	if got := p.SelfMatch(); math.Abs(got-(0.5625+0.0625)) > 1e-12 {
		t.Errorf("SelfMatch = %v", got)
	}
	// Offset 1: P(X-Y=1) = P(1)P(0) = 0.1875
	if got := p.OffsetMatch(1); math.Abs(got-0.1875) > 1e-12 {
		t.Errorf("OffsetMatch(1) = %v", got)
	}
	if got := p.OffsetMatch(0); math.Abs(got-p.SelfMatch()) > 1e-12 {
		t.Error("OffsetMatch(0) != SelfMatch")
	}
	if got := p.OffsetMatch(-3); math.Abs(got-p.OffsetMatch(1)) > 1e-12 {
		t.Error("OffsetMatch should wrap negative offsets")
	}
}

// --- Appendix lemmas as executable properties -----------------------

// TestLemma1PMaxNonIncreasing: PMax(A+B) ≤ min(PMax(A), PMax(B)).
func TestLemma1PMaxNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.IntN(64)
		a := randomPMF(rng, m, 1+rng.IntN(m), 1000)
		b := randomPMF(rng, m, 1+rng.IntN(m), 1000)
		c := a.Convolve(b)
		limit := math.Min(a.PMax(), b.PMax())
		if c.PMax() > limit+1e-12 {
			t.Fatalf("PMax grew: %v > min(%v, %v)", c.PMax(), a.PMax(), b.PMax())
		}
	}
}

// TestLemma2PMinNonDecreasing: when both distributions have full
// support, PMin(A+B) ≥ max(PMin(A), PMin(B)).
func TestLemma2PMinNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 2))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.IntN(64)
		ca, cb := make([]uint64, m), make([]uint64, m)
		for v := 0; v < m; v++ {
			ca[v] = 1 + rng.Uint64N(1000) // full support
			cb[v] = 1 + rng.Uint64N(1000)
		}
		a, b := fromCounts(ca), fromCounts(cb)
		c := a.Convolve(b)
		limit := math.Max(a.PMin(), b.PMin())
		if c.PMin() < limit-1e-12 {
			t.Fatalf("PMin shrank: %v < max(%v, %v)", c.PMin(), a.PMin(), b.PMin())
		}
	}
}

// TestCorollary3MoreUniformWithK: as k grows, the k-fold sum's PMax is
// non-increasing and PMin non-decreasing.
func TestCorollary3MoreUniformWithK(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 3))
	p := randomPMF(rng, 255, 40, 4) // N ≤ 160, so N^16 < 2^118 stays exact
	prev := p
	for k := 2; k <= 16; k++ {
		next := prev.Convolve(p)
		if next.PMax() > prev.PMax()+1e-12 {
			t.Fatalf("k=%d: PMax increased %v -> %v", k, prev.PMax(), next.PMax())
		}
		if next.PMin() < prev.PMin()-1e-12 {
			t.Fatalf("k=%d: PMin decreased %v -> %v", k, prev.PMin(), next.PMin())
		}
		prev = next
	}
}

// TestTheorem4CentralLimit: the k-fold sum tends to uniform — for large
// k, PMax approaches 1/M.
func TestTheorem4CentralLimit(t *testing.T) {
	// A decidedly non-uniform start with support generating ℤ/M (mass
	// at 1 guarantees full mixing).
	m := 97
	p := make([]float64, m)
	p[0], p[1], p[7] = 0.6, 0.3, 0.1
	pmax := func(p []float64) float64 { return PMF{M: m, P: p}.PMax() }
	if got := pmax(floatPow(p, 256)); got > 1.5/float64(m) {
		t.Errorf("after 256 additions PMax = %v, want near %v", got, 1.0/float64(m))
	}
	if got := pmax(floatPow(p, 4096)); math.Abs(got-1/float64(m)) > 0.05/float64(m) {
		t.Errorf("after 4096 additions PMax = %v, want ≈ %v", got, 1.0/float64(m))
	}
}

// floatPow returns the k-fold convolution power of p by binary powering
// over floatConvolve.  At k = 4096 the exact denominator is 10^4096,
// far past the exact kernel's bound, so Theorem 4 is checked in floats:
// this is a check of the mathematics, not an oracle for the kernel.
func floatPow(p []float64, k int) []float64 {
	result := make([]float64, len(p))
	result[0] = 1
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			result = floatConvolve(result, p)
		}
		p = floatConvolve(p, p)
	}
	return result
}

// floatConvolve is the textbook float convolution over ℤ/len(p).
func floatConvolve(p, q []float64) []float64 {
	m := len(p)
	out := make([]float64, m)
	for x, qx := range q {
		for v, pv := range p {
			out[(v+x)%m] += pv * qx
		}
	}
	return out
}

// TestLemma5UniformTermDominates: if even one term of a sum is uniform,
// the sum is uniform.
func TestLemma5UniformTermDominates(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 5))
	skewed := randomPMF(rng, 64, 5, 1000)
	sum := skewed.Convolve(UniformPMF(64))
	for v, pv := range sum.P {
		if math.Abs(pv-1.0/64) > 1e-12 {
			t.Fatalf("sum not uniform at %d: %v", v, pv)
		}
	}
}

// TestLemma9EqualBeatsOffset: P(X = Y) ≥ P(X − Y ≡ c) for every c —
// the inequality behind both Fletcher's advantage (§5.2) and trailer
// checksums (§5.3).
func TestLemma9EqualBeatsOffset(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 6))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.IntN(128)
		p := randomPMF(rng, m, 1+rng.IntN(m), 1000)
		eq := p.SelfMatch()
		for c := 1; c < m; c++ {
			if off := p.OffsetMatch(c); off > eq+1e-12 {
				t.Fatalf("m=%d c=%d: offset match %v > self match %v", m, c, off, eq)
			}
		}
	}
}

// UniformPMF returns the uniform distribution over ℤ/m.
func UniformPMF(m int) PMF {
	counts := make([]uint64, m)
	for i := range counts {
		counts[i] = 1
	}
	return fromCounts(counts)
}

// PointPMF returns the distribution concentrated at v mod m.
func PointPMF(m, v int) PMF {
	counts := make([]uint64, m)
	counts[((v%m)+m)%m] = 1
	return fromCounts(counts)
}

// ConvolvePow returns the distribution of the sum of k independent
// draws from p (k ≥ 1), via binary powering.
func (p PMF) ConvolvePow(k int) PMF {
	if k < 1 {
		panic("dist: ConvolvePow needs k >= 1")
	}
	result := PointPMF(p.M, 0)
	base := p
	for k > 0 {
		if k&1 == 1 {
			result = result.Convolve(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Convolve(base)
		}
	}
	return result
}

// PMax returns the largest point mass.
func (p PMF) PMax() float64 {
	max := 0.0
	for _, v := range p.P {
		if v > max {
			max = v
		}
	}
	return max
}

// PMin returns the smallest point mass (including zeros).
func (p PMF) PMin() float64 {
	if len(p.P) == 0 {
		return 0
	}
	min := p.P[0]
	for _, v := range p.P[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// OffsetMatch returns P(X − Y ≡ c mod M) for independent X, Y ∼ p.
// Lemma 9: for every c this is at most SelfMatch.
func (p PMF) OffsetMatch(c int) float64 {
	m := p.M
	c = ((c % m) + m) % m
	var s float64
	for v, pv := range p.P {
		if pv == 0 {
			continue
		}
		y := v - c
		if y < 0 {
			y += m
		}
		s += pv * p.P[y]
	}
	return s
}

// TotalMass returns Σp — 1.0 for a valid distribution, up to float
// error.
func (p PMF) TotalMass() float64 {
	var s float64
	for _, v := range p.P {
		s += v
	}
	return s
}
