package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"realsum/internal/algo"
	"realsum/internal/corpus"
	"realsum/internal/dist"
)

// Progress carries lightweight throughput counters a long pass updates
// as it runs, for cmd/paper -progress.  All methods are safe for
// concurrent use and nil-safe, so engine code can update unconditionally.
type Progress struct {
	files atomic.Uint64
	bytes atomic.Uint64
}

// Observe records one processed file of n bytes.
func (p *Progress) Observe(n int) {
	if p == nil {
		return
	}
	p.files.Add(1)
	p.bytes.Add(uint64(n))
}

// Files returns the number of files processed so far.
func (p *Progress) Files() uint64 {
	if p == nil {
		return 0
	}
	return p.files.Load()
}

// Bytes returns the number of corpus bytes processed so far.
func (p *Progress) Bytes() uint64 {
	if p == nil {
		return 0
	}
	return p.bytes.Load()
}

// CollectOptions configures a distribution-collection pass.
type CollectOptions struct {
	// Workers bounds parallelism across files (default GOMAXPROCS).
	Workers int
	// Seed perturbs the per-file RNG seeding of randomized passes
	// (CollectLocalAnyCells).  Zero preserves the historical seeding, so
	// existing goldens are unchanged by default.
	Seed uint64
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *Progress
}

// Collect is the sharded streaming engine behind the splice simulation
// (Run) and every distribution pass: Figures 2–3 and Tables 4–6.  It is
// the one-shot form of Pool — a walk feeds the bounded job queue, each
// worker accumulates into a private shard holding no locks, and the
// shards merge into a fresh result shard at the drain.  The walk runs
// up to queuePerWorker files per worker ahead of the workers, so at
// most (queuePerWorker+1)·workers walked files are held at once.
//
// Determinism contract: file receives the file's walk-order index, so
// any per-file seeding depends only on corpus order, never on worker
// scheduling; shards must hold only order-independent state (integer
// counters, histograms, censuses) merged by a commutative merge.  Under
// that contract the merged result is byte-identical at any worker
// count.  Derived floating-point statistics must be computed from the
// merged shard, after Collect returns.
//
// ctx cancels the pass between files; the walk error (ctx.Err) is
// returned.
func Collect[S any](ctx context.Context, w corpus.Walker, opt CollectOptions,
	newShard func() S,
	file func(shard S, idx int, data []byte),
	merge func(dst, src S),
) (S, error) {
	res := newShard()
	var mu sync.Mutex
	pool := NewPool(PoolOptions{Workers: opt.Workers, Progress: opt.Progress},
		newShard,
		file,
		func(shard S) {
			mu.Lock()
			merge(res, shard)
			mu.Unlock()
		},
	)
	idx := 0
	err := w.Walk(func(path string, data []byte) error {
		if serr := pool.Submit(ctx, idx, data); serr != nil {
			return serr
		}
		idx++
		return nil
	})
	pool.Drain()
	return res, err
}

// CollectCellHistogram scans every complete 48-byte cell of every file
// and histograms its checksum value under a — the Figure 2/Figure 3
// measurement.  a must be a 16-bit algorithm.
func CollectCellHistogram(ctx context.Context, w corpus.Walker, a algo.Algorithm, opt CollectOptions) (*dist.Histogram, error) {
	return Collect(ctx, w, opt,
		dist.NewHistogram,
		func(h *dist.Histogram, _ int, data []byte) {
			for off := 0; off+dist.CellSize <= len(data); off += dist.CellSize {
				h.Add(uint16(a.Sum(data[off : off+dist.CellSize])))
			}
		},
		func(dst, src *dist.Histogram) { dst.Merge(src) },
	)
}

// CollectBlockHistogram histograms the TCP checksum of aligned k-cell
// blocks — the k=2,4,… series of Figure 2.
func CollectBlockHistogram(ctx context.Context, w corpus.Walker, k int, opt CollectOptions) (*dist.Histogram, error) {
	g, err := CollectGlobal(ctx, w, k, opt)
	if err != nil {
		return nil, err
	}
	return g.Histogram(), nil
}

// CollectGlobal runs the global k-cell block sampler over a corpus
// (Table 4 "Measured", Table 5 "Globally Congruent", and the
// exclude-identical subtraction).
func CollectGlobal(ctx context.Context, w corpus.Walker, k int, opt CollectOptions) (*dist.GlobalSampler, error) {
	return Collect(ctx, w, opt,
		func() *dist.GlobalSampler { return dist.NewGlobalSampler(k) },
		func(g *dist.GlobalSampler, _ int, data []byte) { g.AddFile(data) },
		func(dst, src *dist.GlobalSampler) { dst.Merge(src) },
	)
}

// CollectLocal runs the local congruence sampler (Table 5's "Locally
// Congruent" and "Excluding Identical" columns) with the paper's
// 512-byte window.
func CollectLocal(ctx context.Context, w corpus.Walker, k, window int, opt CollectOptions) (dist.LocalStats, error) {
	s, err := Collect(ctx, w, opt,
		func() *dist.LocalSampler { return dist.NewLocalSampler(k, window) },
		func(s *dist.LocalSampler, _ int, data []byte) { s.File(data) },
		func(dst, src *dist.LocalSampler) { dst.MergeStats(src) },
	)
	if err != nil {
		return dist.LocalStats{}, err
	}
	return s.Stats(), nil
}

// CollectLocalAnyCells runs the paper's actual local sampling method —
// non-contiguous k-cell blocks within the window (§4.6) — with
// perWindow sampled pairs per window position.  Each file's RNG is
// seeded from its walk-order index, so the result is identical at any
// worker count.
func CollectLocalAnyCells(ctx context.Context, w corpus.Walker, k, window, perWindow int, opt CollectOptions) (dist.LocalStats, error) {
	s, err := Collect(ctx, w, opt,
		func() *dist.AnyCellsSampler { return dist.NewAnyCellsSampler(k, window, perWindow) },
		func(s *dist.AnyCellsSampler, idx int, data []byte) {
			s.File(data, 0xA11CE115^opt.Seed^uint64(idx))
		},
		func(dst, src *dist.AnyCellsSampler) { dst.MergeStats(src) },
	)
	if err != nil {
		return dist.LocalStats{}, err
	}
	return s.Stats(), nil
}
