package dist

// Sparse is a census over an arbitrary (up to 64-bit) checksum space,
// for algorithms whose value space is too large for a dense Histogram —
// the Adler-32 and CRC-32 cell distributions of the extension
// experiments.
type Sparse struct {
	counts map[uint64]uint64
	total  uint64
}

// NewSparse returns an empty census.
func NewSparse() *Sparse {
	return &Sparse{counts: make(map[uint64]uint64)}
}

// Add records one observation.
func (s *Sparse) Add(v uint64) {
	s.counts[v]++
	s.total++
}

// Merge adds every count of o into s, for combining per-worker shards.
func (s *Sparse) Merge(o *Sparse) {
	for v, c := range o.counts {
		s.counts[v] += c
	}
	s.total += o.total
}

// CollisionProbability estimates P(two independent draws equal) with
// the unbiased pair estimator, like Histogram.CollisionProbability.
func (s *Sparse) CollisionProbability() float64 {
	if s.total < 2 {
		return 0
	}
	var sum float64
	for _, c := range s.counts {
		if c > 1 {
			sum += float64(c) * float64(c-1)
		}
	}
	return sum / (float64(s.total) * float64(s.total-1))
}
