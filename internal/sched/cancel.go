package sched

// Run supervision: context cancellation, deterministic aborts and panic
// isolation for pool-scheduled rank bodies.
//
// RunCtx is the only way rank bodies run. Three things end a run early:
//
//   - The context is canceled (caller deadline, server shutdown). Rank
//     bodies observe this only at checkpoints — Checkpoint calls the
//     substrate plants at operation issue points and barrier waits — and
//     unwind by panicking with a private sentinel the collector translates
//     into ErrRunCanceled. Between checkpoints a body runs exactly the
//     instructions it would have run anyway, which is what keeps the
//     cancellation plane invisible to the simulated clocks: a run either
//     completes with bit-identical results or returns an error and no
//     results at all (DESIGN.md §8).
//
//   - A body calls Abort(err): a deterministic, modeled failure (the
//     fault plane's crash-stop class in fail-fast mode). The aborting
//     rank unwinds immediately, every other rank is canceled, and RunCtx
//     returns err itself — the same error on every host schedule.
//
//   - A body panics: a bug, not a model event. RunCtx wraps the value
//     and stack into *PanicError with the rank attached, cancels the
//     remaining ranks so nobody waits forever at a rendezvous, and
//     returns the error instead of crashing the process. The panic is
//     contained to the run; state owned by the run is unwound through the
//     bodies' own defers (scratch repooling, slot release).
//
// Cancellation must also wake ranks blocked in rendezvous (a barrier
// holds no slot and polls no checkpoints). NotifyCancel registers a
// wakeup hook — the rma Barrier registers its Broadcast — invoked once
// per canceled run.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrRunCanceled is the sentinel a canceled run's error matches via
// errors.Is. The concrete error additionally unwraps to the context's
// cause, so errors.Is(err, context.DeadlineExceeded) distinguishes a
// deadline from an explicit cancel.
var ErrRunCanceled = errors.New("sched: run canceled")

// canceledError is the concrete error of a canceled run.
type canceledError struct{ cause error }

func (e *canceledError) Error() string {
	if e.cause != nil {
		return "sched: run canceled: " + e.cause.Error()
	}
	return ErrRunCanceled.Error()
}

func (e *canceledError) Is(target error) bool { return target == ErrRunCanceled }
func (e *canceledError) Unwrap() error        { return e.cause }

// PanicError is a rank-body panic converted into a run error: the rank
// that panicked, the recovered value, and the goroutine stack captured at
// the recovery point. The process survives; the run's results are
// discarded.
type PanicError struct {
	Rank  int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: rank %d panicked: %v", e.Rank, e.Value)
}

// panicCanceled is the private unwind sentinel Checkpoint throws. It never
// escapes the package: the collector swallows it.
type panicCanceled struct{}

// runAbort carries a deterministic abort error up the aborting rank's
// stack. Like panicCanceled it never escapes RunCtx.
type runAbort struct{ err error }

// Abort unwinds the calling rank body and makes the surrounding RunCtx
// return err (the remaining ranks are canceled). It must be called from
// inside a body RunCtx started.
func Abort(err error) {
	panic(runAbort{err: err})
}

// runState is the cancellation state of one RunCtx invocation.
type runState struct {
	canceled atomic.Bool
	mu       sync.Mutex
	cause    error
	// ctx/done let Checkpoint observe cancellation directly: a run whose
	// ranks keep hitting checkpoints must not depend on the watcher
	// goroutine winning a scheduling race to be canceled (on a loaded
	// single-core host a short run can otherwise finish first).
	ctx  context.Context
	done <-chan struct{}
	// wedge is closed exactly once when the run is canceled or aborted;
	// WedgeUntilCanceled parks on it. Unlike the NotifyCancel hooks it
	// needs no registration, so a wedged rank costs nothing when no rank
	// wedges.
	wedge chan struct{}
}

// NotifyCancel registers f to be invoked (once, on the canceling
// goroutine) whenever a run on this pool is canceled or aborted. It is
// the rendezvous wakeup hook: blocking primitives built over the pool
// register their broadcast so waiters re-check Canceled. Hooks persist
// across runs; registration must not race RunCtx's cancellation (create
// barriers before starting the run).
func (p *Pool) NotifyCancel(f func()) {
	p.hookMu.Lock()
	p.hooks = append(p.hooks, f)
	p.hookMu.Unlock()
}

// Canceled reports whether the pool's current run has been canceled or
// aborted. Rendezvous loops poll it after NotifyCancel wakeups.
func (p *Pool) Canceled() bool {
	rs := p.cur.Load()
	return rs != nil && rs.canceled.Load()
}

// Checkpoint panics with the cancellation sentinel if the current run has
// been canceled, unwinding the calling rank body; otherwise it is a nil
// check, an atomic load and a non-blocking channel poll. The substrate
// calls it at operation issue points and after barrier wakeups — the only
// places a rank observes cancellation. Polling the context's done channel
// here (not just the canceled flag) makes observation deterministic: the
// first checkpoint after the context is canceled unwinds, whether or not
// the watcher goroutine has run yet.
func (p *Pool) Checkpoint() {
	rs := p.cur.Load()
	if rs == nil {
		return
	}
	if rs.canceled.Load() {
		panic(panicCanceled{})
	}
	if rs.done != nil {
		select {
		case <-rs.done:
			p.cancel(rs, &canceledError{cause: context.Cause(rs.ctx)})
			panic(panicCanceled{})
		default:
		}
	}
}

// WedgeUntilCanceled parks the calling rank body until the surrounding
// run is canceled or aborted, then unwinds it through the normal
// cancellation sentinel. It is the fault plane's wedge class (a rank
// stuck in host code that never again reaches a checkpoint): the slot is
// yielded first, so the wedged rank starves nobody — it is invisible to
// the pool, to the other ranks, and to every simulated clock. Only an
// external cancel (the serve watchdog, a caller deadline, run abort)
// releases it. Outside any run (bench/replay.go's r0) nothing will ever
// cancel, so it returns immediately rather than deadlock.
func (p *Pool) WedgeUntilCanceled() {
	rs := p.cur.Load()
	if rs == nil {
		return
	}
	p.Yield(func() { <-rs.wedge })
	p.Checkpoint()
}

// cancel flips the run canceled (recording cause on the first call) and
// fires the registered wakeup hooks.
func (p *Pool) cancel(rs *runState, cause error) {
	rs.mu.Lock()
	if rs.canceled.Load() {
		rs.mu.Unlock()
		return
	}
	rs.cause = cause
	rs.canceled.Store(true)
	close(rs.wedge)
	rs.mu.Unlock()
	p.hookMu.Lock()
	hooks := append([]func(){}, p.hooks...)
	p.hookMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// RunCtx executes body(i) for every i in [0, n), each on its own
// goroutine but with at most Workers bodies executing at any moment, and
// returns when all have finished — nil on a completed run,
// ErrRunCanceled (wrapping the context cause) on cancellation, the Abort
// error on a deterministic abort, or *PanicError when a body panics.
// Bodies start in index order and may block in Yield-routed rendezvous
// without deadlocking the pool. On any non-nil return the run's outputs
// must be discarded: some bodies did not finish.
//
// A pool supervises one run at a time; RunCtx panics if a run is already
// in flight (the engines create one pool per run).
func (p *Pool) RunCtx(ctx context.Context, n int, body func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	rs := &runState{ctx: ctx, done: ctx.Done(), wedge: make(chan struct{})}
	if !p.cur.CompareAndSwap(nil, rs) {
		panic("sched: RunCtx on a pool whose run is still in flight")
	}
	defer p.cur.Store(nil)

	if rs.done != nil {
		// Checkpoints poll done directly; the watcher goroutine covers the
		// complement — ranks blocked in a rendezvous need its cancel to
		// fire the registered wakeup hooks.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-rs.done:
				p.cancel(rs, &canceledError{cause: context.Cause(ctx)})
			case <-stop:
			}
		}()
	}

	results := make(chan error, n)
	for i := 0; i < n; i++ {
		// The slot is taken here, not in the body's goroutine, so bodies
		// start in index order: under one worker a run whose ranks fail
		// fails on the lowest of them, on every repeat.
		p.acquire()
		go func(i int) {
			defer p.release()
			defer func() {
				var err error
				switch v := recover().(type) {
				case nil, panicCanceled: // a canceled rank unwound cleanly, no error of its own
				case runAbort:
					err = v.err
				default:
					err = &PanicError{Rank: i, Value: v, Stack: debug.Stack()}
				}
				if err != nil {
					// Unwind the remaining ranks: without this they would
					// wait forever at a rendezvous for a rank that no
					// longer exists, and those not yet started would run
					// in full.
					p.cancel(rs, err)
				}
				results <- err
			}()
			body(i)
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-results; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if rs.canceled.Load() {
		rs.mu.Lock()
		cause := rs.cause
		rs.mu.Unlock()
		if cause == nil {
			cause = &canceledError{}
		}
		return cause
	}
	return nil
}
