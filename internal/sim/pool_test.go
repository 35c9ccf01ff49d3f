package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countShard is the simplest commutative shard: per-shard sums merged
// under the flush mutex.
type countShard struct {
	files int
	bytes int
}

func TestPoolProcessesEverySubmission(t *testing.T) {
	var mu sync.Mutex
	total := countShard{}
	pool := NewPool(PoolOptions{Workers: 4},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, data []byte) {
			s.files++
			s.bytes += len(data)
		},
		func(s *countShard) {
			mu.Lock()
			total.files += s.files
			total.bytes += s.bytes
			s.files, s.bytes = 0, 0
			mu.Unlock()
		},
	)
	const n = 100
	for i := 0; i < n; i++ {
		if err := pool.Submit(context.Background(), i, make([]byte, i)); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
	}
	pool.Drain()
	if total.files != n {
		t.Errorf("flushed %d files, want %d", total.files, n)
	}
	if want := n * (n - 1) / 2; total.bytes != want {
		t.Errorf("flushed %d bytes, want %d", total.bytes, want)
	}
}

// TestPoolBatchedFlush verifies FlushEvery publishes partial batches
// while the pool is still accepting work: with one worker and
// FlushEvery=2, the aggregate is non-empty before Drain.
func TestPoolBatchedFlush(t *testing.T) {
	var flushed atomic.Int64
	pool := NewPool(PoolOptions{Workers: 1, FlushEvery: 2},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, data []byte) { s.files++ },
		func(s *countShard) {
			flushed.Add(int64(s.files))
			s.files = 0
		},
	)
	for i := 0; i < 10; i++ {
		if err := pool.Submit(context.Background(), i, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for flushed.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if flushed.Load() < 2 {
		t.Error("no mid-run batch flush observed before Drain")
	}
	pool.Drain()
	if got := flushed.Load(); got != 10 {
		t.Errorf("flushed %d files total, want 10", got)
	}
}

// TestPoolBackpressure pins the bounded-queue contract: with every
// worker blocked, exactly queuePerWorker·workers further submissions
// queue, and the next Submit cannot complete until a worker frees a
// slot.
func TestPoolBackpressure(t *testing.T) {
	for _, workers := range []int{1, 2} {
		gate := make(chan struct{})
		// Room for every submission, so released workers never block.
		started := make(chan struct{}, (queuePerWorker+1)*workers+1)
		pool := NewPool(PoolOptions{Workers: workers},
			func() *countShard { return &countShard{} },
			func(s *countShard, idx int, data []byte) {
				started <- struct{}{}
				<-gate
			},
			nil,
		)
		ctx := context.Background()
		// The first submissions occupy the workers.
		idx := 0
		for ; idx < workers; idx++ {
			if err := pool.Submit(ctx, idx, nil); err != nil {
				t.Fatal(err)
			}
			<-started
		}
		// The queue takes queuePerWorker files per worker without
		// blocking.
		queued := make(chan error, 1)
		go func() {
			for i := range queuePerWorker * workers {
				if err := pool.Submit(ctx, workers+i, nil); err != nil {
					queued <- err
					return
				}
			}
			queued <- nil
		}()
		select {
		case err := <-queued:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: %d submissions did not all queue behind the blocked workers", workers, queuePerWorker*workers)
		}
		idx += queuePerWorker * workers
		next := make(chan error, 1)
		go func() { next <- pool.Submit(ctx, idx, nil) }()
		select {
		case err := <-next:
			t.Fatalf("workers=%d: Submit %d completed (%v) despite a full queue", workers, idx, err)
		case <-time.After(50 * time.Millisecond):
			// Blocked, as the backpressure contract requires.
		}
		close(gate)
		select {
		case err := <-next:
			if err != nil {
				t.Fatalf("workers=%d: Submit after release: %v", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: Submit still blocked after the workers drained", workers)
		}
		pool.Drain()
	}
}

// TestPoolSubmitCancel verifies a cancelled context unblocks a
// backpressured Submit with ctx.Err(), and that Drain still processes
// everything already queued.
func TestPoolSubmitCancel(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	var done atomic.Int64
	pool := NewPool(PoolOptions{Workers: 1},
		func() *countShard { return &countShard{} },
		func(s *countShard, idx int, data []byte) {
			started <- struct{}{}
			<-gate
			done.Add(1)
		},
		nil,
	)
	ctx, cancel := context.WithCancel(context.Background())
	if err := pool.Submit(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i <= queuePerWorker; i++ {
		if err := pool.Submit(ctx, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- pool.Submit(ctx, queuePerWorker+1, nil) }()
	cancel()
	if err := <-blocked; err != context.Canceled {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	close(gate)
	pool.Drain()
	if got, want := done.Load(), int64(1+queuePerWorker); got != want {
		t.Errorf("drain processed %d queued files, want %d (cancel must not drop queued work)", got, want)
	}
}
