package sim

import (
	"context"
	"runtime"
	"sync"
)

// PoolOptions configures a shard Pool.
type PoolOptions struct {
	// Workers is the number of shard-owning goroutines (default
	// GOMAXPROCS).
	Workers int
	// FlushEvery, when positive, invokes the flush callback on a shard
	// after it has processed that many files since its last flush, so a
	// long-running pool publishes partial results in batches.  Zero
	// flushes only at Drain.
	FlushEvery int
	// Progress, when non-nil, receives per-file throughput updates.
	Progress *Progress
}

// workers is the package's one worker-count default: every engine —
// Run, Collect and Pool — resolves its Workers field here.
func (o PoolOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// queuePerWorker is how many submitted files may wait per worker.  A
// full queue blocks Submit, so a producer that outpaces the workers
// stalls instead of buffering unboundedly; a queue deeper than one file
// lets a producer whose per-file cost varies (a corpus walk that
// generates each file) run ahead through a slow file while the workers
// drain the ones before it.
const queuePerWorker = 8

type poolJob struct {
	idx  int
	data []byte
}

// Pool is the open-ended form of the Collect engine: the same
// shard-per-worker, merge-after-drain contract, but fed by Submit calls
// instead of a single corpus walk, so a long-running caller (a
// verification stream in cmd/cksumd) can keep pushing files for as long
// as it likes and publish merged results in batches along the way.
// Its queue holds queuePerWorker files per worker; a full queue blocks
// Submit.
//
// Determinism contract (inherited from Collect): file receives the
// submission-order index, so per-file work depends only on feed order,
// never on worker scheduling; shards must hold only order-independent
// state merged commutatively by the flush callback.  Under that
// contract the accumulated result is byte-identical at any worker
// count and any FlushEvery cadence.
//
// The flush callback runs on worker goroutines for mid-run batches and
// on the Drain caller's goroutine for the final pass, so it must
// synchronize access to whatever it merges into.
type Pool[S any] struct {
	jobs    chan poolJob
	shards  []S
	flush   func(S)
	wg      sync.WaitGroup
	drained bool
}

// NewPool starts the worker goroutines.  newShard builds one private
// shard per worker; file processes one submitted file into a shard;
// flush (optional) publishes a shard's accumulated state — it must
// leave the shard empty-but-reusable (merge into an aggregate, then
// reset) so batches never double-count.
func NewPool[S any](opt PoolOptions,
	newShard func() S,
	file func(shard S, idx int, data []byte),
	flush func(shard S),
) *Pool[S] {
	nw := opt.workers()
	p := &Pool[S]{
		jobs:   make(chan poolJob, queuePerWorker*nw),
		shards: make([]S, nw),
		flush:  flush,
	}
	for i := 0; i < nw; i++ {
		p.shards[i] = newShard()
		p.wg.Add(1)
		go func(shard S) {
			defer p.wg.Done()
			since := 0
			for j := range p.jobs {
				file(shard, j.idx, j.data)
				opt.Progress.Observe(len(j.data))
				since++
				if flush != nil && opt.FlushEvery > 0 && since >= opt.FlushEvery {
					flush(shard)
					since = 0
				}
			}
		}(p.shards[i])
	}
	return p
}

// Submit queues one file for processing, blocking while the queue is
// full (backpressure): at most queuePerWorker files per worker wait
// behind the ones the workers hold, so a pool holds at most
// (queuePerWorker+1)·workers submitted files at once.  idx must be the caller's submission counter —
// the per-file determinism handle.  Returns ctx.Err() if the context is
// cancelled first; files already queued are still processed by Drain.
func (p *Pool[S]) Submit(ctx context.Context, idx int, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.jobs <- poolJob{idx: idx, data: data}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain closes the queue, waits for every queued file to finish, and
// runs the final flush over the shards in creation order — so a
// flush-merged result sees shards deterministically when no mid-run
// batches fired.  Drain is idempotent; Submit must not be called after.
func (p *Pool[S]) Drain() {
	if p.drained {
		return
	}
	p.drained = true
	close(p.jobs)
	p.wg.Wait()
	if p.flush != nil {
		for _, s := range p.shards {
			p.flush(s)
		}
	}
}
