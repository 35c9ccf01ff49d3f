package dist

import (
	"fmt"

	"realsum/internal/inet"
	"realsum/internal/onescomp"
)

// Windower streams a file as 48-byte cells and maintains the
// ones-complement sum of every k-cell window as it slides, replacing
// the old CellSums/BlockSum pair that materialized a full []uint16 per
// file.  The rolling sum is updated in O(1) per cell — add the entering
// cell, subtract the leaving one; both operations are exact mod 65535,
// so every produced window sum is congruent to the directly computed
// block sum (§4.1's composition, run in reverse for the eviction).
//
// Bounded rings of recent cell sums and window sums give the locality
// samplers random access to the neighbourhood the paper compares within
// ("two packet lengths", §4.6) without unbounded retention.
type Windower struct {
	k       int
	cells   int    // cells pushed since Reset
	run     uint16 // rolling sum of the last min(cells, k) cell sums
	cellCap int
	winCap  int
	cellBuf []uint16
	winBuf  []uint16
	pending [CellSize]byte
	npend   int
}

// NewWindower returns a Windower over k-cell windows that retains the
// last cellHistory cell sums and the last windowHistory window sums for
// random access.  cellHistory is raised to k internally: the rolling
// update needs the evicted cell's sum.  windowHistory of 0 disables
// window retention (Last still works).
func NewWindower(k, cellHistory, windowHistory int) *Windower {
	if k < 1 {
		panic(fmt.Sprintf("dist: Windower k must be >= 1 (got %d)", k))
	}
	if cellHistory < k {
		cellHistory = k
	}
	w := &Windower{
		k:       k,
		cellCap: cellHistory,
		winCap:  windowHistory,
		cellBuf: make([]uint16, cellHistory),
	}
	if windowHistory > 0 {
		w.winBuf = make([]uint16, windowHistory)
	}
	return w
}

// Reset discards all streamed state so the Windower can take the next
// file, keeping its rings allocated.
func (w *Windower) Reset() {
	w.cells = 0
	w.run = 0
	w.npend = 0
}

// Write streams file bytes, carrying partial cells across calls.  A
// trailing runt that never completes a cell is ignored, matching the
// paper's "only deals in full-size cells" sampling rule (§4.6).
func (w *Windower) Write(p []byte) (int, error) {
	n := len(p)
	if w.npend > 0 {
		c := copy(w.pending[w.npend:], p)
		w.npend += c
		p = p[c:]
		if w.npend < CellSize {
			return n, nil
		}
		w.PushCell(inet.Sum(w.pending[:]))
		w.npend = 0
	}
	for len(p) >= CellSize {
		w.PushCell(inet.Sum(p[:CellSize]))
		p = p[CellSize:]
	}
	w.npend = copy(w.pending[:], p)
	return n, nil
}

// PushCell appends one cell's ones-complement sum, sliding the window.
func (w *Windower) PushCell(sum uint16) {
	c := w.cells
	if c >= w.k {
		// Evict cell c-k from the rolling sum.  Read before the write
		// below so a cellCap of exactly k still sees the old value.
		w.run = onescomp.Sub(w.run, w.cellBuf[(c-w.k)%w.cellCap])
	}
	w.cellBuf[c%w.cellCap] = sum
	w.run = onescomp.Add(w.run, sum)
	w.cells = c + 1
	if w.winCap > 0 && w.cells >= w.k {
		w.winBuf[(w.cells-w.k)%w.winCap] = w.run
	}
}

// Windows returns the number of complete k-cell windows produced.
func (w *Windower) Windows() int {
	if w.cells < w.k {
		return 0
	}
	return w.cells - w.k + 1
}

// Last returns the sum of the most recently completed window.  It is
// meaningful only when Windows() > 0.
func (w *Windower) Last() uint16 { return w.run }

// CellSum returns the sum of cell i (absolute index since Reset), which
// must still be within the retained history.
func (w *Windower) CellSum(i int) uint16 {
	if i < 0 || i >= w.cells || i < w.cells-w.cellCap {
		panic(fmt.Sprintf("dist: cell %d outside retained history [%d,%d)",
			i, max(0, w.cells-w.cellCap), w.cells))
	}
	return w.cellBuf[i%w.cellCap]
}

// WindowSum returns the sum of the window starting at cell start, which
// must still be within the retained window history.
func (w *Windower) WindowSum(start int) uint16 {
	n := w.Windows()
	if start < 0 || start >= n || start < n-w.winCap {
		panic(fmt.Sprintf("dist: window %d outside retained history [%d,%d)",
			start, max(0, n-w.winCap), n))
	}
	return w.winBuf[start%w.winCap]
}
