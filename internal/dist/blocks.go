package dist

import (
	"bytes"

	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// CellSize is the block quantum of the whole study: the ATM cell
// payload.
const CellSize = 48

// fnv64a is FNV-1a over p with the standard 64-bit parameters — the
// same function hash/fnv computes, inlined so the per-block content
// census allocates nothing.
func fnv64a(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// GlobalSampler accumulates the file-system-wide distribution of k-cell
// block checksums, plus a content-hash census so identical blocks can
// be excluded — the "Globally Congruent" and "Exclude Identical"
// machinery of Tables 4–6.  Samplers are single-goroutine shards; merge
// them with Merge after a parallel pass.
type GlobalSampler struct {
	K      int
	hist   *Histogram
	hashes map[uint64]uint64
	blocks uint64
	win    *Windower
}

// NewGlobalSampler returns a sampler for k-cell blocks.
func NewGlobalSampler(k int) *GlobalSampler {
	return &GlobalSampler{
		K:      k,
		hist:   NewHistogram(),
		hashes: make(map[uint64]uint64),
		win:    NewWindower(k, k, 0),
	}
}

// AddFile records every aligned k-cell block of one file.
func (g *GlobalSampler) AddFile(data []byte) {
	w := g.win
	w.Reset()
	k := g.K
	n := len(data) / CellSize
	for c := 0; c < n; c++ {
		w.PushCell(inet.Sum(data[c*CellSize : (c+1)*CellSize]))
		start := c - k + 1
		if start >= 0 && start%k == 0 {
			g.hist.Add(w.Last())
			g.hashes[fnv64a(data[start*CellSize:(start+k)*CellSize])]++
			g.blocks++
		}
	}
}

// Merge folds another sampler's counts into g.  Counts are integers, so
// merging is exact and order-independent: any shard partition of the
// same corpus merges to identical state.
func (g *GlobalSampler) Merge(o *GlobalSampler) {
	g.hist.Merge(o.hist)
	for h, c := range o.hashes {
		g.hashes[h] += c
	}
	g.blocks += o.blocks
}

// Histogram exposes the accumulated checksum histogram.
func (g *GlobalSampler) Histogram() *Histogram { return g.hist }

// CongruentProbability returns the probability that two blocks drawn
// from anywhere in the sampled data have congruent checksums
// (Table 4's / Table 5's "Globally Congruent" column).
func (g *GlobalSampler) CongruentProbability() float64 {
	return g.hist.CollisionProbability()
}

// IdenticalProbability estimates the probability that two distinct
// blocks drawn from the sampled data have identical contents — the
// benign congruences §4.5 subtracts out.  Like CollisionProbability it
// uses the unbiased pair estimator.
func (g *GlobalSampler) IdenticalProbability() float64 {
	if g.blocks < 2 {
		return 0
	}
	var s float64
	for _, c := range g.hashes {
		if c > 1 {
			s += float64(c) * float64(c-1)
		}
	}
	return s / (float64(g.blocks) * float64(g.blocks-1))
}

// Blocks returns the number of blocks sampled.
func (g *GlobalSampler) Blocks() uint64 { return g.blocks }

// LocalStats counts block-pair comparisons restricted to a locality
// window (Table 5).
type LocalStats struct {
	Pairs     uint64 // pairs compared
	Congruent uint64 // pairs with congruent checksums (incl. identical)
	Identical uint64 // pairs with byte-identical contents
}

// Add accumulates another set of counts.
func (s *LocalStats) Add(o LocalStats) {
	s.Pairs += o.Pairs
	s.Congruent += o.Congruent
	s.Identical += o.Identical
}

// CongruentP returns the local congruence probability.
func (s LocalStats) CongruentP() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Congruent) / float64(s.Pairs)
}

// ExcludeIdenticalP returns the probability of a congruent-but-different
// pair — Table 5's "Excluding Identical" column.
func (s LocalStats) ExcludeIdenticalP() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Congruent-s.Identical) / float64(s.Pairs)
}

// LocalSampler compares every pair of k-cell blocks whose start offsets
// differ by at most Window bytes (512 reproduces the paper's "within 2
// packet lengths").  Blocks start on cell boundaries; overlapping pairs
// are skipped so a block is never compared with a shifted self-image.
//
// The sampler streams each file through a Windower: when the window
// starting at cell j completes, it is compared against the retained
// window sums at starts j-maxCellDist .. j-k — O(1) per pair where the
// old BlockSum recomputation was O(k).  The steady-state File path
// allocates nothing.
type LocalSampler struct {
	K      int
	Window int
	stats  LocalStats
	win    *Windower
}

// NewLocalSampler returns a sampler for k-cell blocks within window
// bytes.
func NewLocalSampler(k, window int) *LocalSampler {
	maxCellDist := window / CellSize
	return &LocalSampler{
		K:      k,
		Window: window,
		win:    NewWindower(k, k, maxCellDist+1),
	}
}

// File accumulates all in-window pairs of one file.
func (s *LocalSampler) File(data []byte) {
	w := s.win
	w.Reset()
	k := s.K
	maxCellDist := s.Window / CellSize
	n := len(data) / CellSize
	for c := 0; c < n; c++ {
		w.PushCell(inet.Sum(data[c*CellSize : (c+1)*CellSize]))
		j := c - k + 1 // start of the window that just completed
		if j < k {
			continue // no earlier non-overlapping window yet
		}
		b := w.Last()
		lo := j - maxCellDist
		if lo < 0 {
			lo = 0
		}
		for i := lo; i <= j-k; i++ {
			s.stats.Pairs++
			if !onescomp.Congruent(w.WindowSum(i), b) {
				continue
			}
			s.stats.Congruent++
			if bytes.Equal(data[i*CellSize:(i+k)*CellSize], data[j*CellSize:(j+k)*CellSize]) {
				s.stats.Identical++
			}
		}
	}
}

// Stats returns the accumulated counts.
func (s *LocalSampler) Stats() LocalStats { return s.stats }

// MergeStats folds another sampler shard's counts into s.
func (s *LocalSampler) MergeStats(o *LocalSampler) { s.stats.Add(o.stats) }
