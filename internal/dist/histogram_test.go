package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"realsum/internal/onescomp"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Total() != 0 || h.Distinct() != 0 {
		t.Error("empty histogram not empty")
	}
	h.Add(5)
	h.Add(5)
	h.Add(7)
	h.AddN(9, 3)
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(5) != 2 || h.Count(9) != 3 || h.Count(100) != 0 {
		t.Error("counts wrong")
	}
	if h.Distinct() != 3 {
		t.Errorf("Distinct = %d", h.Distinct())
	}
}

func TestHistogramNormalizesNegativeZero(t *testing.T) {
	h := NewHistogram()
	h.Add(0x0000)
	h.Add(0xFFFF)
	if h.Count(0) != 2 || h.Count(0xFFFF) != 2 {
		t.Error("0x0000 and 0xFFFF must share a bucket")
	}
	if h.Distinct() != 1 {
		t.Errorf("Distinct = %d, want 1", h.Distinct())
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	h := NewHistogram()
	h.AddN(10, 5)
	h.AddN(20, 5)
	h.AddN(30, 9)
	top := h.TopK(3)
	if len(top) != 3 || top[0].Value != 30 || top[1].Value != 10 || top[2].Value != 20 {
		t.Errorf("TopK = %+v", top)
	}
	if got := h.TopK(100); len(got) != 3 {
		t.Errorf("TopK over-asks: %d", len(got))
	}
}

func TestSortedPDFAndCDF(t *testing.T) {
	h := NewHistogram()
	h.AddN(1, 6)
	h.AddN(2, 3)
	h.AddN(3, 1)
	pdf := h.SortedPDF()
	want := []float64{0.6, 0.3, 0.1}
	for i := range want {
		if math.Abs(pdf[i]-want[i]) > 1e-12 {
			t.Errorf("pdf[%d] = %v, want %v", i, pdf[i], want[i])
		}
	}
	cdf := h.CDF(2)
	if math.Abs(cdf[0]-0.6) > 1e-12 || math.Abs(cdf[1]-0.9) > 1e-12 {
		t.Errorf("cdf = %v", cdf)
	}
	if got := h.TopShare(2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TopShare(2) = %v", got)
	}
}

func TestCollisionProbability(t *testing.T) {
	h := NewHistogram()
	// Point mass: always collides.
	h.AddN(7, 10)
	if got := h.CollisionProbability(); math.Abs(got-1) > 1e-12 {
		t.Errorf("point mass collision = %v", got)
	}
	// Two equal masses of 5: unbiased pair estimate 2·5·4/(10·9) = 4/9.
	h2 := NewHistogram()
	h2.AddN(1, 5)
	h2.AddN(2, 5)
	if got := h2.CollisionProbability(); math.Abs(got-4.0/9) > 1e-12 {
		t.Errorf("two-mass collision = %v, want %v", got, 4.0/9)
	}
	// Fewer than two observations: no pairs.
	h3 := NewHistogram()
	h3.Add(1)
	if h3.CollisionProbability() != 0 {
		t.Error("single observation should give 0")
	}
	// Distinct singletons: the without-replacement estimate is 0, where
	// the with-replacement Σp² would be 0.5.
	h3.Add(2)
	if got := h3.CollisionProbability(); got != 0 {
		t.Errorf("collision estimate over singletons = %v, want 0", got)
	}
}

func TestUniformCollisionNearTwoToMinus16(t *testing.T) {
	// A uniform 16-bit source collides at ≈1/65535 (normalized space).
	rng := rand.New(rand.NewPCG(1, 1))
	h := NewHistogram()
	for i := 0; i < 2_000_000; i++ {
		h.Add(uint16(rng.Uint32()))
	}
	got := h.CollisionProbability()
	want := 1.0 / 65535
	if got < want*0.9 || got > want*1.3 {
		t.Errorf("uniform collision = %g, want ≈ %g", got, want)
	}
}

func TestPMaxEmptyAndFilled(t *testing.T) {
	h := NewHistogram()
	if _, p := h.PMax(); p != 0 {
		t.Error("empty PMax should be 0")
	}
	h.AddN(42, 3)
	h.AddN(43, 1)
	v, p := h.PMax()
	if v != 42 || math.Abs(p-0.75) > 1e-12 {
		t.Errorf("PMax = (%d, %v)", v, p)
	}
}

// Count returns the number of observations of v (and its congruent
// representation).
func (h *Histogram) Count(v uint16) uint64 {
	return h.counts[onescomp.Normalize(v)]
}
