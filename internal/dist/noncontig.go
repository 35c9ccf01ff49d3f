package dist

import (
	"math/rand/v2"

	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// AnyCellsSampler compares pairs of k-cell blocks assembled from
// *non-contiguous* cells within a locality window, which is how the
// paper actually gathered its local samples ("In order to increase the
// sample size for the local comparisons, we did not restrict ourselves
// to contiguous blocks", §4.6).  For every window position it draws
// PerWindow random pairs of disjoint k-cell subsets of the window's
// cells and tallies congruence and byte-identity.
//
// Files stream through a Windower whose cell ring retains exactly one
// locality window, so no per-file []uint16 is materialized.  Each file
// re-seeds its RNG from the caller-supplied seed, so results depend
// only on (file contents, seed) — never on which shard or worker
// processed the file.
type AnyCellsSampler struct {
	K         int
	Window    int
	PerWindow int
	stats     LocalStats
	win       *Windower
	idx       []int
}

// NewAnyCellsSampler returns a sampler drawing perWindow pairs per
// window position of window bytes.
func NewAnyCellsSampler(k, window, perWindow int) *AnyCellsSampler {
	cellsPerWindow := window / CellSize
	return &AnyCellsSampler{
		K:         k,
		Window:    window,
		PerWindow: perWindow,
		win:       NewWindower(1, cellsPerWindow, 0),
		idx:       make([]int, 0, 2*k),
	}
}

// File accumulates one file's draws.  The RNG is seeded per file; the
// draw sequence reproduces the original single-pass implementation
// exactly, so histogram-level results are byte-stable.
func (s *AnyCellsSampler) File(data []byte, seed uint64) {
	k := s.K
	cellsPerWindow := s.Window / CellSize
	nCells := len(data) / CellSize
	if cellsPerWindow < 2*k || nCells < 2*k {
		return
	}
	rng := rand.New(rand.NewPCG(seed, uint64(k)<<32|uint64(s.Window)))
	w := s.win
	w.Reset()
	n := cellsPerWindow
	for c := 0; c < nCells; c++ {
		w.PushCell(inet.Sum(data[c*CellSize : (c+1)*CellSize]))
		start := c - cellsPerWindow + 1
		if start < 0 {
			continue
		}
		for r := 0; r < s.PerWindow; r++ {
			// Draw 2k distinct cells of the window; the first k (in
			// draw order) form block A, the rest block B.
			idx := s.idx[:0]
			for len(idx) < 2*k {
				cell := start + rng.IntN(n)
				dup := false
				for _, e := range idx {
					if e == cell {
						dup = true
						break
					}
				}
				if !dup {
					idx = append(idx, cell)
				}
			}
			var a, b uint16
			for i := 0; i < k; i++ {
				a = onescomp.Add(a, w.CellSum(idx[i]))
				b = onescomp.Add(b, w.CellSum(idx[k+i]))
			}
			s.stats.Pairs++
			if !onescomp.Congruent(a, b) {
				continue
			}
			s.stats.Congruent++
			if blocksIdentical(data, idx[:k], idx[k:]) {
				s.stats.Identical++
			}
		}
	}
}

// Stats returns the accumulated counts.
func (s *AnyCellsSampler) Stats() LocalStats { return s.stats }

// MergeStats folds another sampler shard's counts into s.
func (s *AnyCellsSampler) MergeStats(o *AnyCellsSampler) { s.stats.Add(o.stats) }

// blocksIdentical reports whether the concatenation of cells ai equals
// the concatenation of cells bi, cell-wise.
func blocksIdentical(data []byte, ai, bi []int) bool {
	for i := range ai {
		a := data[ai[i]*CellSize : (ai[i]+1)*CellSize]
		b := data[bi[i]*CellSize : (bi[i]+1)*CellSize]
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}
