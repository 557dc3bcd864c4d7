package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// mustRun is RunCtx for a body that must complete: any run error fails t.
func mustRun(t *testing.T, p *Pool, n int, body func(i int)) {
	t.Helper()
	if err := p.RunCtx(context.Background(), n, body); err != nil {
		t.Fatalf("RunCtx = %v", err)
	}
}

func TestRunExecutesAllOnce(t *testing.T) {
	p := New(3)
	const n = 100
	var counts [n]int32
	mustRun(t, p, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("body %d executed %d times, want 1", i, c)
		}
	}
}

func TestConcurrencyBounded(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		var cur, peak int32
		mustRun(t, p, 32, func(i int) {
			c := atomic.AddInt32(&cur, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if c <= old || atomic.CompareAndSwapInt32(&peak, old, c) {
					break
				}
			}
			runtime.Gosched() // widen the overlap window
			atomic.AddInt32(&cur, -1)
		})
		if got := atomic.LoadInt32(&peak); got > int32(workers) {
			t.Errorf("workers=%d: observed %d concurrent bodies", workers, got)
		}
	}
}

func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	if got, want := New(0).workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).workers = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := New(-3).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).workers = %d, want GOMAXPROCS", got)
	}
	if got := New(7).workers; got != 7 {
		t.Fatalf("New(7).workers = %d, want 7", got)
	}
}

// TestYieldPreventsBarrierDeadlock is the load-bearing property: with a
// single worker slot, n ranks that all rendezvous at a barrier can only
// make progress if the blocked ranks release their slot.
func TestYieldPreventsBarrierDeadlock(t *testing.T) {
	const n = 8
	p := New(1)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := 0
	mustRun(t, p, n, func(i int) {
		p.Yield(func() {
			mu.Lock()
			arrived++
			if arrived == n {
				cond.Broadcast()
			} else {
				for arrived < n {
					cond.Wait()
				}
			}
			mu.Unlock()
		})
	})
	if arrived != n {
		t.Fatalf("arrived = %d, want %d", arrived, n)
	}
}

func TestRunMoreRanksThanWorkers(t *testing.T) {
	p := New(2)
	var sum int64
	var mu sync.Mutex
	mustRun(t, p, 50, func(i int) {
		mu.Lock()
		sum += int64(i)
		mu.Unlock()
	})
	if sum != 50*49/2 {
		t.Fatalf("sum = %d, want %d", sum, 50*49/2)
	}
}

// TestBodiesStartInIndexOrder: under one worker the bodies start in index
// order, so a run whose ranks fail first fails on the lowest failing rank,
// the same way on every repeat. The slot hand-off orders the appends.
func TestBodiesStartInIndexOrder(t *testing.T) {
	const n = 64
	var order []int
	mustRun(t, New(1), n, func(i int) { order = append(order, i) })
	for pos, i := range order {
		if i != pos {
			t.Fatalf("body %d started at position %d", i, pos)
		}
	}
	if len(order) != n {
		t.Fatalf("%d bodies started, want %d", len(order), n)
	}
}
