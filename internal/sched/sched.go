// Package sched provides the deterministic multicore rank scheduler: it
// runs the bodies of p simulated ranks on real goroutines while bounding
// how many execute simultaneously to a fixed worker count.
//
// The paper's machine makes P ranks progress concurrently; the simulation
// must do the same to use the host's cores, but it must also keep the
// golden-test guarantee that every simulated quantity — SimTime float
// bits, triangle counts, cache hit counts — is bit-identical at any
// worker count, including Workers=1. The scheduler therefore does not
// order rank execution for the results' sake: it bounds concurrency, and
// starts bodies in index order only so that a failing run fails the same
// way every time (under one worker, on the lowest failing rank).
// Determinism of results is a property of the workloads it runs, enforced
// by construction elsewhere (rank-local clocks and counters, disjoint
// output ranges, and the staged commutative window updates of
// internal/rma — see DESIGN.md §4). Under that discipline any interleaving
// of rank bodies produces the same results, so past the start order the
// pool lets the Go runtime schedule however it likes.
//
// The one scheduling subtlety is blocking rendezvous: a rank that waits
// at a simulated barrier must not pin an execution slot, or W < p worker
// slots could all be held by blocked ranks while the ranks they wait for
// are starved — a deadlock. Yield releases the caller's slot around a
// blocking section and reacquires it afterwards; internal/rma's Barrier
// and every other cross-rank rendezvous built on the pool route their
// blocking through it.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many rank bodies execute concurrently. The zero value
// is not usable; call New.
type Pool struct {
	workers int
	slots   chan struct{}

	// Run supervision (cancel.go): the in-flight RunCtx's cancellation
	// state, and the registered rendezvous wakeup hooks.
	cur    atomic.Pointer[runState]
	hookMu sync.Mutex
	hooks  []func()
}

// New creates a pool with the given worker bound. workers <= 0 selects
// GOMAXPROCS, the default that saturates the host without oversubscribing
// it.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, slots: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// acquire takes an execution slot, blocking until one is free.
func (p *Pool) acquire() { <-p.slots }

// release returns an execution slot.
func (p *Pool) release() { p.slots <- struct{}{} }

// Yield releases the caller's execution slot, runs blocked (which may
// block on other ranks — a barrier rendezvous, a condition variable), and
// reacquires a slot before returning. It must only be called from inside
// a body RunCtx started; the caller holds a slot by construction. The
// reacquire is deferred so that a blocked section that panics — a
// canceled rank unwinding out of a rendezvous — restores the slot the
// body's own deferred release is about to return; without it the unwind
// would release a slot the body no longer holds and corrupt the pool's
// accounting.
func (p *Pool) Yield(blocked func()) {
	p.release()
	defer p.acquire()
	blocked()
}
