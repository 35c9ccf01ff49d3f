package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"realsum/internal/fletcher"
	"realsum/internal/inet"
)

// Named executable forms of the appendix theorems about checksums over
// *uniformly distributed* data.  (Lemmas 1–2, Corollary 3, Theorem 4,
// Lemma 5 and Lemma 9 live in pmf_test.go as exact computations; these
// are the Monte-Carlo ones.)

// TestTheorem6TCPUniformOverUniformData: the Internet checksum of
// uniformly distributed data is uniformly distributed — chi-square over
// the normalized ℤ/65535 space.
func TestTheorem6TCPUniformOverUniformData(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 60))
	h := NewHistogram()
	cell := make([]byte, 48)
	const n = 2_000_000
	for i := 0; i < n; i++ {
		for j := range cell {
			cell[j] = byte(rng.Uint32())
		}
		h.Add(inet.Sum(cell))
	}
	counts := make([]uint64, 0, 65535)
	for v := 0; v < 65535; v++ {
		counts = append(counts, h.Count(uint16(v)))
	}
	chi2 := chiSquareUniform(counts)
	// 65534 degrees of freedom: mean 65534, sd ≈ 362.  Allow ±6 sd.
	if chi2 > 65534+6*362 || chi2 < 65534-6*362 {
		t.Errorf("TCP checksum over uniform data: chi2 = %.0f (df 65534)", chi2)
	}
}

// TestTheorem7FletcherUniformOverUniformData: both Fletcher components
// are uniformly distributed over uniform data (the mod-255 variant over
// ℤ/255, the mod-256 variant over ℤ/256).
func TestTheorem7FletcherUniformOverUniformData(t *testing.T) {
	rng := rand.New(rand.NewPCG(70, 70))
	cell := make([]byte, 48)
	const n = 1_000_000
	for _, m := range []fletcher.Mod{fletcher.Mod255, fletcher.Mod256} {
		countsA := make([]uint64, int(m))
		countsB := make([]uint64, int(m))
		for i := 0; i < n; i++ {
			for j := range cell {
				cell[j] = byte(rng.Uint32())
			}
			p := m.Sum(cell)
			countsA[p.A%uint16(m)]++
			countsB[p.B%uint16(m)]++
		}
		for name, counts := range map[string][]uint64{"A": countsA, "B": countsB} {
			chi2 := chiSquareUniform(counts)
			df := float64(int(m) - 1)
			sd := 22.6 // sqrt(2*255) ≈ 22.6
			if chi2 > df+6*sd*2 {
				t.Errorf("Fletcher mod %d component %s: chi2 = %.0f (df %.0f)", m, name, chi2, df)
			}
		}
	}
}

// TestCorollary8EquivalentPowerOnUniformData: under the substitution
// model on uniform data, the IP and Fletcher checksums miss at
// statistically indistinguishable rates (≈2^-16).  We measure the
// congruence probability of independent uniform cells under each sum.
func TestCorollary8EquivalentPowerOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewPCG(80, 80))
	const n = 400_000
	tcp := NewHistogram()
	f255 := NewSparse()
	f256 := NewSparse()
	cell := make([]byte, 48)
	for i := 0; i < n; i++ {
		for j := range cell {
			cell[j] = byte(rng.Uint32())
		}
		tcp.Add(inet.Sum(cell))
		f255.Add(uint64(fletcher.Mod255.Sum(cell).Checksum16()))
		f256.Add(uint64(fletcher.Mod256.Sum(cell).Checksum16()))
	}
	pTCP := tcp.CollisionProbability()
	p255 := f255.CollisionProbability()
	p256 := f256.CollisionProbability()
	// Expected collision floors: 1/65535 (TCP), 1/255² (F-255: each
	// component uniform over 255 values), 1/65536 (F-256).
	within := func(name string, got, want float64) {
		if got < want/3 || got > want*3 {
			t.Errorf("%s collision %.3g, want ≈ %.3g", name, got, want)
		}
	}
	within("TCP", pTCP, 1.0/65535)
	within("F-255", p255, 1.0/(255*255))
	within("F-256", p256, 1.0/65536)
}

// chiSquareUniform returns the chi-square statistic of counts against a
// uniform expectation (degrees of freedom = len(counts)−1).
func chiSquareUniform(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) == 0 {
		return 0
	}
	exp := float64(total) / float64(len(counts))
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	return chi2
}

func TestChiSquareUniform(t *testing.T) {
	if got := chiSquareUniform([]uint64{10, 10, 10, 10}); got != 0 {
		t.Errorf("flat counts chi2 = %v", got)
	}
	if got := chiSquareUniform([]uint64{40, 0, 0, 0}); math.Abs(got-120) > 1e-9 {
		t.Errorf("point mass chi2 = %v, want 120", got)
	}
	if chiSquareUniform(nil) != 0 || chiSquareUniform([]uint64{0, 0}) != 0 {
		t.Error("degenerate inputs")
	}
}
