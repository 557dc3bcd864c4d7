package serve

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"repro/internal/lcc"
)

// The admission queue (DESIGN.md §8): when every MaxConcurrent slot is
// taken and Config.QueueDepth > 0, an arriving run parks in a bounded
// per-instance priority queue instead of bouncing with ErrBusy. Higher
// Query.Priority runs first; within a priority the queue is FIFO (a
// monotone sequence number breaks ties). Overflow past QueueDepth stays a
// fast typed ErrBusy rejection — the queue bounds latency, it does not
// hide overload.
//
// A queued run keeps honoring its context and an optional
// deadline-in-queue (Query.QueueTimeout): cancellation or expiry removes
// the waiter and returns typed errors without consuming a slot. The
// grant/abandon race — a slot granted in the same instant the waiter
// gives up — is resolved under the instance lock: a granted waiter that
// abandons releases its slot back to the queue, so runs are never lost
// and never duplicated. Stop, panic and load-failure transitions fence
// the queue: every waiter is flushed with the typed lifecycle error
// before in-flight runs are drained.

// waiter is one queued admission, owned by the instance heap until
// granted or removed (both under the instance lock).
type waiter struct {
	priority int
	seq      uint64        // admission order; breaks priority ties FIFO
	ready    chan struct{} // closed exactly once, on grant or fence
	granted  bool          // true = a run slot was claimed on our behalf
	err      error         // set before close(ready) when fenced
	index    int           // heap position; -1 once popped or removed
}

// waiterQueue is a max-heap on (priority, -seq): highest priority first,
// FIFO within a priority.
type waiterQueue []*waiter

func (q waiterQueue) Len() int { return len(q) }

func (q waiterQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}

func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}

func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// QueueTimeoutError reports a run whose deadline-in-queue expired before a
// slot freed. It wraps ErrQueueTimeout and carries the measured wait so
// the daemon can report it (lccd maps this to 504 with the wait in the
// JSON error body).
type QueueTimeoutError struct {
	Wait time.Duration
}

func (e *QueueTimeoutError) Error() string {
	return fmt.Sprintf("serve: queue deadline expired after %v", e.Wait)
}

func (e *QueueTimeoutError) Unwrap() error { return ErrQueueTimeout }

// grantLocked hands freed slots to the highest-priority waiters. Called
// under the instance lock whenever a slot frees (finish, abandoned grant).
func (inst *Instance) grantLocked() {
	for inst.active < inst.cfg.MaxConcurrent && inst.queue.Len() > 0 {
		w := heap.Pop(&inst.queue).(*waiter)
		w.granted = true
		inst.active++
		close(w.ready)
	}
}

// flushQueueLocked fences the queue: every waiter still queued is removed
// and woken with err. Called under the instance lock on the transitions
// that end service (Stop, panic → unhealthy, unpark load failure), before
// in-flight runs drain.
func (inst *Instance) flushQueueLocked(err error) {
	for inst.queue.Len() > 0 {
		w := heap.Pop(&inst.queue).(*waiter)
		w.err = err
		close(w.ready)
	}
}

// enqueueLocked parks the caller in the admission queue and blocks until
// granted, fenced, canceled or expired. Takes the instance lock held and
// releases it; returns with the lock released, and on a grant the snapshot
// to run against and the measured wait.
func (inst *Instance) enqueueLocked(q Query, done <-chan struct{}, cause func() error) (*lcc.Snapshot, time.Duration, error) {
	w := &waiter{priority: q.Priority, seq: inst.seq, ready: make(chan struct{})}
	inst.seq++
	heap.Push(&inst.queue, w)
	inst.mu.Unlock()

	start := time.Now()
	var timeC <-chan time.Time
	if q.QueueTimeout > 0 {
		timer := time.NewTimer(q.QueueTimeout)
		defer timer.Stop()
		timeC = timer.C
	}

	var abandonErr error
	select {
	case <-w.ready:
		wait := time.Since(start)
		if w.err != nil {
			// Fenced: the instance stopped serving while we queued.
			inst.mu.Lock()
			inst.ctr.Rejected++
			inst.mu.Unlock()
			return nil, 0, w.err
		}
		// Granted: a slot is already claimed on our behalf. Re-validate
		// the lifecycle — the instance may have flipped unhealthy or
		// exited between the grant and this wakeup — and capture the
		// snapshot under the lock.
		inst.mu.Lock()
		if abandonErr = inst.refusalLocked(); abandonErr != nil {
			inst.releaseSlotLocked()
			inst.ctr.Rejected++
			inst.mu.Unlock()
			return nil, 0, abandonErr
		}
		snap := inst.snap
		inst.touchLocked()
		inst.mu.Unlock()
		return snap, wait, nil
	case <-done:
		abandonErr = fmt.Errorf("serve: canceled while queued: %w", cause())
	case <-timeC:
		abandonErr = &QueueTimeoutError{Wait: time.Since(start)}
	}

	// Abandon path: leave the queue, or — if a grant raced us — give the
	// slot back so the run is neither lost nor duplicated.
	inst.mu.Lock()
	if w.granted {
		inst.releaseSlotLocked()
	} else if w.index >= 0 {
		heap.Remove(&inst.queue, w.index)
	}
	var qe *QueueTimeoutError
	if errors.As(abandonErr, &qe) {
		inst.ctr.TimedOut++
	} else {
		inst.ctr.Canceled++
	}
	inst.mu.Unlock()
	return nil, 0, abandonErr
}

// releaseSlotLocked returns a slot to the pool — a finished run's, or one
// grantLocked claimed for a waiter that then gave up — and hands it on to
// the queue. Called under the instance lock.
func (inst *Instance) releaseSlotLocked() {
	inst.active--
	inst.grantLocked()
	inst.cond.Broadcast()
}
