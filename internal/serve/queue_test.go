package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Queue-admission tests (DESIGN.md §8): FIFO within priority, cancellation
// and deadline while queued, fence on shutdown, typed overflow — and the
// golden pins through it all, so a run that waited in the queue is still
// bit-identical to one that walked straight in.

// queuedInstance builds an fb-sim instance with one run slot and a bounded
// admission queue.
func queuedInstance(t *testing.T, depth int) *serve.Instance {
	t.Helper()
	inst := serve.NewInstance("q", serve.Config{
		Dataset: "fb-sim", Ranks: 4, MaxConcurrent: 1, QueueDepth: depth,
	})
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return inst
}

// occupy claims the instance's only run slot with a blocking run and
// returns the release control plus the join handle for the blocker.
func occupy(t *testing.T, inst *serve.Instance, workers int) (release chan struct{}, join func()) {
	t.Helper()
	q, entered, release := blockingQuery(workers)
	done := make(chan error, 1)
	go func() {
		_, err := inst.Run(context.Background(), q)
		done <- err
	}()
	<-entered
	return release, func() {
		if err := <-done; err != nil {
			t.Fatalf("blocking run: %v", err)
		}
	}
}

// waitQueued polls until the instance reports n queued runs.
func waitQueued(t *testing.T, inst *serve.Instance, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for inst.Info().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d (timed out)", inst.Info().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFIFOWithinPriority enqueues five runs at mixed priorities
// behind an occupied slot and asserts the grant order: strictly by
// priority descending, FIFO within each priority, at Workers ∈ {1,4}.
// Every granted run must still reproduce the golden pins.
func TestQueueFIFOWithinPriority(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			inst := queuedInstance(t, 8)
			release, join := occupy(t, inst, w)

			// ids in enqueue order with their priorities; expected grant
			// order is 5a, 5b (FIFO within 5), 1, 0a, 0b.
			specs := []struct {
				id       string
				priority int
			}{{"0a", 0}, {"5a", 5}, {"1", 1}, {"5b", 5}, {"0b", 0}}
			var (
				mu      sync.Mutex
				started []string
			)
			var wg sync.WaitGroup
			for i, spec := range specs {
				q := pullQuery(w)
				q.Priority = spec.priority
				id := spec.id
				var once sync.Once
				q.Options.OnRemoteRead = func(rank int, v graph.V) {
					once.Do(func() {
						mu.Lock()
						started = append(started, id)
						mu.Unlock()
					})
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := inst.Run(context.Background(), q)
					if err != nil {
						t.Errorf("queued run %s: %v", id, err)
						return
					}
					if res.QueueWait <= 0 {
						t.Errorf("queued run %s: QueueWait = %v, want > 0", id, res.QueueWait)
					}
					assertPins(t, res)
				}()
				// Serialize enqueue order so the FIFO tiebreak is
				// deterministic.
				waitQueued(t, inst, i+1)
			}
			close(release)
			join()
			wg.Wait()

			want := []string{"5a", "5b", "1", "0a", "0b"}
			if fmt.Sprint(started) != fmt.Sprint(want) {
				t.Fatalf("grant order = %v, want %v", started, want)
			}
			if ctr := inst.Info().Counters; ctr.Served != int64(len(specs))+1 {
				t.Errorf("Served = %d, want %d", ctr.Served, len(specs)+1)
			}
		})
	}
}

// TestQueueCancelWhileQueued cancels a run while it waits in the queue:
// the error carries the context cause, the waiter leaves the queue without
// consuming a slot, and the instance keeps serving.
func TestQueueCancelWhileQueued(t *testing.T) {
	inst := queuedInstance(t, 4)
	release, join := occupy(t, inst, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := inst.Run(ctx, pullQuery(2))
		errCh <- err
	}()
	waitQueued(t, inst, 1)
	cancel()
	err := <-errCh
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-in-queue err = %v, want context.Canceled in chain", err)
	}
	if got := inst.Info().Queued; got != 0 {
		t.Fatalf("queued after cancel = %d, want 0", got)
	}
	close(release)
	join()
	if ctr := inst.Info().Counters; ctr.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", ctr.Canceled)
	}
	res, err := inst.Run(context.Background(), pullQuery(2))
	if err != nil {
		t.Fatalf("rerun after queue cancel: %v", err)
	}
	assertPins(t, res)
}

// TestQueueDeadlineInQueue lets a queued run's deadline-in-queue expire:
// the run fails with ErrQueueTimeout, the typed *QueueTimeoutError carries
// the measured wait, and the TimedOut counter moves.
func TestQueueDeadlineInQueue(t *testing.T) {
	inst := queuedInstance(t, 4)
	release, join := occupy(t, inst, 2)
	defer func() { close(release); join() }()

	q := pullQuery(2)
	q.QueueTimeout = 20 * time.Millisecond
	_, err := inst.Run(context.Background(), q)
	if !errors.Is(err, serve.ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	var qe *serve.QueueTimeoutError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QueueTimeoutError in chain", err)
	}
	if qe.Wait < 20*time.Millisecond {
		t.Errorf("QueueTimeoutError.Wait = %v, want >= 20ms", qe.Wait)
	}
	if got := inst.Info().Queued; got != 0 {
		t.Fatalf("queued after timeout = %d, want 0", got)
	}
	if ctr := inst.Info().Counters; ctr.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", ctr.TimedOut)
	}
}

// TestQueueFenceOnStop stops an instance while a run waits in its queue:
// the queued run is fenced out with ErrInstanceExited before the in-flight
// run drains, and the in-flight run still completes with the golden pins.
func TestQueueFenceOnStop(t *testing.T) {
	inst := queuedInstance(t, 4)
	q, entered, release := blockingQuery(2)
	blockerRes := make(chan *serve.QueryResult, 1)
	go func() {
		res, err := inst.Run(context.Background(), q)
		if err != nil {
			t.Errorf("in-flight run across Stop: %v", err)
		}
		blockerRes <- res
	}()
	<-entered

	fenced := make(chan error, 1)
	go func() {
		_, err := inst.Run(context.Background(), pullQuery(2))
		fenced <- err
	}()
	waitQueued(t, inst, 1)

	if err := inst.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// The fence fires on Stop, before the in-flight run is released.
	select {
	case err := <-fenced:
		if !errors.Is(err, serve.ErrInstanceExited) {
			t.Fatalf("fenced run err = %v, want ErrInstanceExited", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued run not fenced out by Stop")
	}
	close(release)
	if res := <-blockerRes; res != nil {
		assertPins(t, res)
	}
	if ctr := inst.Info().Counters; ctr.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1 (the fenced waiter)", ctr.Rejected)
	}
}

// TestQueueOverflowTypedRejection fills the queue and asserts overflow is
// still the fast typed ErrBusy, not a blocking wait.
func TestQueueOverflowTypedRejection(t *testing.T) {
	inst := queuedInstance(t, 1)
	release, join := occupy(t, inst, 2)

	queued := make(chan error, 1)
	go func() {
		_, err := inst.Run(context.Background(), pullQuery(2))
		queued <- err
	}()
	waitQueued(t, inst, 1)

	if _, err := inst.Run(context.Background(), pullQuery(2)); !errors.Is(err, serve.ErrBusy) {
		t.Fatalf("overflow err = %v, want ErrBusy", err)
	}
	if ctr := inst.Info().Counters; ctr.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", ctr.Rejected)
	}
	close(release)
	join()
	if err := <-queued; err != nil {
		t.Fatalf("queued run: %v", err)
	}
}
