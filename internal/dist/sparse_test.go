package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestSparseBasics(t *testing.T) {
	s := NewSparse()
	if s.Total() != 0 || s.Distinct() != 0 || s.CollisionProbability() != 0 {
		t.Error("empty sparse census misbehaves")
	}
	s.Add(5)
	s.Add(5)
	s.Add(9)
	if s.Total() != 3 || s.Distinct() != 2 {
		t.Errorf("total %d distinct %d", s.Total(), s.Distinct())
	}
	// Pairs: {5,5} collide; 2/(3·2) = 1/3.
	if got := s.CollisionProbability(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("collision = %v", got)
	}
}

func TestSparseMatchesDenseOnSmallSpace(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := NewSparse()
	h := NewHistogram()
	for i := 0; i < 50000; i++ {
		v := uint16(rng.Uint32()) & 0x0FFF // keep off the 0xFFFF alias
		s.Add(uint64(v))
		h.Add(v)
	}
	if got, want := s.CollisionProbability(), h.CollisionProbability(); math.Abs(got-want) > 1e-15 {
		t.Errorf("sparse %v != dense %v", got, want)
	}
	if s.Distinct() != h.Distinct() {
		t.Errorf("distinct %d != %d", s.Distinct(), h.Distinct())
	}
}

// Total returns the number of observations.
func (s *Sparse) Total() uint64 { return s.total }

// Distinct returns the number of distinct values observed.
func (s *Sparse) Distinct() int { return len(s.counts) }
