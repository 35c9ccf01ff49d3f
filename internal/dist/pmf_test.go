package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func randomPMF(rng *rand.Rand, m int, support int) PMF {
	p := NewPMF(m)
	var total float64
	for i := 0; i < support; i++ {
		v := rng.IntN(m)
		w := rng.Float64() + 0.01
		p.P[v] += w
		total += w
	}
	for i := range p.P {
		p.P[i] /= total
	}
	return p
}

func TestConvolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.IntN(40)
		a := randomPMF(rng, m, 1+rng.IntN(m))
		b := randomPMF(rng, m, 1+rng.IntN(m))
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

// refConvolve is the textbook loop the blocked kernel replaced: for each
// nonzero q[x] in ascending x, add p[v]·q[x] into out[(v+x) mod M].  It
// is the slow reference Convolve must match bit for bit.
func refConvolve(p, q PMF) PMF {
	m := p.M
	out := NewPMF(m)
	for x, qx := range q.P {
		if qx == 0 {
			continue
		}
		o := out.P[x:]
		for v := 0; v < m-x; v++ {
			o[v] += p.P[v] * qx
		}
		o = out.P[:x]
		for v := m - x; v < m; v++ {
			o[v-(m-x)] += p.P[v] * qx
		}
	}
	return out
}

// densityPMF returns a PMF over ℤ/m whose bins are each nonzero with
// probability density (at least one bin is).
func densityPMF(rng *rand.Rand, m int, density float64) PMF {
	p := NewPMF(m)
	p.P[rng.IntN(m)] = rng.Float64() + 0.01
	var total float64
	for i := range p.P {
		if rng.Float64() < density {
			p.P[i] = rng.Float64() + 0.01
		}
		total += p.P[i]
	}
	for i := range p.P {
		p.P[i] /= total
	}
	return p
}

// checkSameBits fails unless got and want agree bit for bit in every bin.
func checkSameBits(t *testing.T, name string, got, want PMF) {
	t.Helper()
	if got.M != want.M || len(got.P) != len(want.P) {
		t.Fatalf("%s: modulus %d/%d bins, want %d/%d", name, got.M, len(got.P), want.M, len(want.P))
	}
	for c := range want.P {
		if math.Float64bits(got.P[c]) != math.Float64bits(want.P[c]) {
			t.Fatalf("%s: bin %d = %v (%#x), reference %v (%#x)", name, c,
				got.P[c], math.Float64bits(got.P[c]), want.P[c], math.Float64bits(want.P[c]))
		}
	}
}

// TestConvolveMatchesReference pins the blocked kernel to the textbook
// loop bit for bit, at moduli around the block width and at densities
// from sparse to full support.
func TestConvolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	densities := []float64{0.01, 0.3, 1}
	for _, m := range []int{1, 2, 3, 255, 256, 2047, 2048, 2049, 4097} {
		for _, dp := range densities {
			for _, dq := range densities {
				p, q := densityPMF(rng, m, dp), densityPMF(rng, m, dq)
				checkSameBits(t, fmt.Sprintf("M=%d p%.0f%%⊛q%.0f%%", m, 100*dp, 100*dq),
					p.Convolve(q), refConvolve(p, q))
			}
		}
		point, uniform := PointPMF(m, m/2), UniformPMF(m)
		checkSameBits(t, fmt.Sprintf("M=%d point⊛uniform", m), point.Convolve(uniform), refConvolve(point, uniform))
		checkSameBits(t, fmt.Sprintf("M=%d uniform⊛point", m), uniform.Convolve(point), refConvolve(uniform, point))
		checkSameBits(t, fmt.Sprintf("M=%d uniform⊛uniform", m), uniform.Convolve(uniform), refConvolve(uniform, uniform))
	}
	if raceEnabled {
		t.Log("skipping the M=65535 case under -race")
		return
	}
	// The Table 4 shape: a dense k-cell PMF against a single-cell PMF
	// with ~20k support over ℤ/65535.
	p, q := densityPMF(rng, 65535, 1), densityPMF(rng, 65535, 0.3)
	checkSameBits(t, "M=65535 dense⊛sparse", p.Convolve(q), refConvolve(p, q))
}

// fuzzPMFs decodes a modulus and two PMFs from fuzz input: two bytes of
// modulus (1..5000), one fill byte (bit 0 gives p, bit 1 gives q a
// small mass in every bin), then 4-byte records — select bit and binary
// exponent, 16-bit bin, mantissa byte — each adding one mass to p or q.
// The masses need not sum to 1: the kernel must match the reference on
// any float64 inputs, across many exponents.
func fuzzPMFs(data []byte) (p, q PMF, ok bool) {
	if len(data) < 3 {
		return PMF{}, PMF{}, false
	}
	m := 1 + int(binary.LittleEndian.Uint16(data))%5000
	p, q = NewPMF(m), NewPMF(m)
	for i, dst := range []PMF{p, q} {
		if data[2]>>i&1 != 0 {
			for c := range dst.P {
				dst.P[c] = 0x1p-20
			}
		}
	}
	for rec := data[3:]; len(rec) >= 4; rec = rec[4:] {
		dst := p
		if rec[0]&0x80 != 0 {
			dst = q
		}
		v := math.Ldexp(float64(rec[3])+1, -int(rec[0]&0x3f))
		dst.P[int(binary.LittleEndian.Uint16(rec[1:]))%m] += v
	}
	return p, q, true
}

func FuzzConvolveMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x01, 0, 0, 7, 0x81, 0, 0, 9})
	f.Add([]byte{0xff, 0x07, 1, 0x85, 0xff, 0x07, 200, 0x83, 0x01, 0x00, 3})
	f.Add([]byte{0x00, 0x08, 2, 0x02, 0xfe, 0x07, 1, 0x04, 0x01, 0x08, 99})
	f.Add([]byte{0x02, 0x10, 3, 0x80, 0x00, 0x10, 0xff, 0x3f, 0x00, 0x00, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q, ok := fuzzPMFs(data)
		if !ok {
			return
		}
		checkSameBits(t, fmt.Sprintf("M=%d", p.M), p.Convolve(q), refConvolve(p, q))
	})
}

// BenchmarkConvolve times one ℤ/65535 convolution in the two shapes the
// paper passes run: sparse⊛sparse (Figure 2's k=2 prediction, the
// single-cell PMF with itself) and dense⊛sparse (Table 4's k ≥ 2 steps).
// The single-cell PMF has ~19.5k of 65535 bins, as on Stanford /u1.
func BenchmarkConvolve(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	single := densityPMF(rng, 65535, 0.3)
	dense := densityPMF(rng, 65535, 1)
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
	a := randomPMF(rng, 255, 50)
	b := randomPMF(rng, 255, 50)
	c := a.Convolve(b)
	if m := c.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Errorf("mass after convolve = %v", m)
	}
}

func TestConvolvePowMatchesRepeated(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	p := randomPMF(rng, 100, 10)
	byPow := p.ConvolvePow(5)
	byRep := p
	for i := 1; i < 5; i++ {
		byRep = byRep.Convolve(p)
	}
	for v := 0; v < 100; v++ {
		if math.Abs(byPow.P[v]-byRep.P[v]) > 1e-10 {
			t.Fatalf("v=%d: pow %v != repeated %v", v, byPow.P[v], byRep.P[v])
		}
	}
	one := p.ConvolvePow(1)
	for v := range p.P {
		if math.Abs(one.P[v]-p.P[v]) > 1e-12 {
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
		a := randomPMF(rng, m, 1+rng.IntN(m))
		b := randomPMF(rng, m, 1+rng.IntN(m))
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
		a, b := NewPMF(m), NewPMF(m)
		var ta, tb float64
		for v := 0; v < m; v++ {
			a.P[v] = rng.Float64() + 0.01 // full support
			b.P[v] = rng.Float64() + 0.01
			ta += a.P[v]
			tb += b.P[v]
		}
		for v := 0; v < m; v++ {
			a.P[v] /= ta
			b.P[v] /= tb
		}
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
	p := randomPMF(rng, 255, 40)
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
	rng := rand.New(rand.NewPCG(10, 4))
	// A decidedly non-uniform start with support generating ℤ/M (mass
	// at 1 guarantees full mixing).
	m := 97
	p := NewPMF(m)
	p.P[0], p.P[1], p.P[7] = 0.6, 0.3, 0.1
	_ = rng
	k256 := p.ConvolvePow(256)
	if k256.PMax() > 1.5/float64(m) {
		t.Errorf("after 256 additions PMax = %v, want near %v", k256.PMax(), 1.0/float64(m))
	}
	k4096 := p.ConvolvePow(4096)
	if math.Abs(k4096.PMax()-1/float64(m)) > 0.05/float64(m) {
		t.Errorf("after 4096 additions PMax = %v, want ≈ %v", k4096.PMax(), 1.0/float64(m))
	}
}

// TestLemma5UniformTermDominates: if even one term of a sum is uniform,
// the sum is uniform.
func TestLemma5UniformTermDominates(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 5))
	skewed := randomPMF(rng, 64, 5)
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
		p := randomPMF(rng, m, 1+rng.IntN(m))
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
	p := NewPMF(m)
	for i := range p.P {
		p.P[i] = 1 / float64(m)
	}
	return p
}

// PointPMF returns the distribution concentrated at v mod m.
func PointPMF(m, v int) PMF {
	p := NewPMF(m)
	p.P[((v%m)+m)%m] = 1
	return p
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
