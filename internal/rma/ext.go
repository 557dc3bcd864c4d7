package rma

import (
	"fmt"
	"sync"
)

// This file extends the simulated runtime beyond the reads the pull engine
// needs, covering the rest of the MPI-3 RMA surface the paper's §II-E
// describes: atomic accumulates (MPI_Accumulate), barriers and
// active-target fence epochs. They are what the push engine of the paper's
// future-work list (§VI ii) runs on: it accumulates partial results at the
// owner instead of pulling adjacency lists.

// issueWrite charges one accumulate message of size wire bytes to target
// once its updates are staged: a local one commits and pays local-memory
// cost here; a remote one fires whatever event the fault schedule reaches
// and raises e's flush horizon to its completion time.
func (r *Rank) issueWrite(e *epoch, target, size int) {
	if target == r.id {
		r.commitStaged(e.w, target)
		r.fold(ChargeAccLocal, size, r.comm.model.LocalCost(size))
		return
	}
	if r.faults != nil {
		r.injectFaults()
	}
	cost := r.comm.model.RemoteCost(size)
	e.until = max(e.until, r.clock.Now()+cost)
	r.ctr.Puts++
	r.ctr.RemoteBytes += int64(size)
}

// Update is one element of a batched accumulate: add Delta to the uint64 at
// byte Offset in the target's region.
type Update struct {
	Offset int
	Delta  uint64
}

// updateWireBytes is the modeled wire size of one Update: a 4-byte index
// plus the 8-byte operand, as an MPI_Accumulate with an indexed datatype
// would ship.
const updateWireBytes = 12

// AccumulateBatch atomically applies every update to target's region in one
// operation (MPI_Accumulate with an indexed datatype and MPI_SUM). The
// whole batch is charged as a single message of 12 bytes per element —
// this is what makes local combining pay off for push-style algorithms:
// k updates cost α + 12k·β, not k latencies. The operation is non-blocking;
// its completion — and, since the parallel scheduler, its effect on the
// target region — is observed by a flush or barrier: the updates are staged
// per (origin, target) and committed there (staged.go), so issuing a batch
// is a rank-local append rather than a serializing read-modify-write. A
// remote batch raises its epoch's flush horizon to its completion time; a
// batch targeting the rank itself commits immediately, preserving local
// program order.
func (r *Rank) AccumulateBatch(w *Window, target int, ups []Update) {
	r.checkpoint()
	e := r.epochOf(w)
	if e == nil {
		panic(fmt.Sprintf("rma: rank %d: AccumulateBatch on %q outside an access epoch", r.id, w.name))
	}
	if w.kind != WritableBytes {
		panic(fmt.Sprintf("rma: rank %d: AccumulateBatch on %v window %q", r.id, w.kind, w.name))
	}
	region := w.loc[target]
	for _, u := range ups {
		if u.Offset < 0 || u.Offset+8 > len(region) {
			panic(fmt.Sprintf("rma: rank %d: AccumulateBatch %q target %d [%d:+8) out of range (len %d)",
				r.id, w.name, target, u.Offset, len(region)))
		}
	}
	r.stageBatch(w, target, ups)
	r.issueWrite(e, target, updateWireBytes*len(ups))
}

// Barrier synchronizes all p ranks of a communicator: real goroutine
// rendezvous plus simulated-clock alignment (everyone jumps to the global
// maximum plus BarrierLatency). It is the building block for active-target
// epochs and for the collective phases of the baselines when they run over
// raw RMA.
//
// A barrier is also the scheduler's commit point: once the last rank has
// arrived, every rank's staged accumulates are replayed into the window
// regions in origin-rank order (staged.go), so post-barrier reads observe
// the same bytes at any worker count. A rank blocked here releases its
// worker slot (sched.Pool.Yield) — with W < p workers the ranks it waits
// for could otherwise never run.
type Barrier struct {
	comm *Comm

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
	maxT    float64
	doneT   float64 // release time of the last closed generation
}

// NewBarrier creates a reusable barrier over the communicator's p ranks.
// The barrier registers a cancellation wakeup with the scheduler: a
// canceled run must rouse ranks blocked in the rendezvous (they hold no
// slot and poll no checkpoints), so they re-check the run state and
// unwind. Create barriers before starting the supervised run.
func (c *Comm) NewBarrier() *Barrier {
	b := &Barrier{comm: c}
	b.cond = sync.NewCond(&b.mu)
	c.pool.NotifyCancel(func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	return b
}

// Wait blocks until all p ranks have arrived, then advances every clock to
// the latest arrival time plus BarrierLatency. The time a rank spends
// blocked is booked as barrier-wait (it is synchronization, not work).
//
// Inside Comm.RunCtx, Wait is also a cancellation point:
// a waiter woken by a canceled run unwinds instead of completing the
// round, and an arriving rank checks before joining. A completed Wait is
// the crash-stop recovery point — the rank's clock at release is recorded
// as the state a recovered crash re-executes from (fault.go).
func (b *Barrier) Wait(r *Rank) {
	pool := r.comm.pool
	if r.running {
		pool.Checkpoint()
	}
	var target float64
	canceled := false
	rendezvous := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		gen := b.gen
		if t := r.clock.Now(); t > b.maxT {
			b.maxT = t
		}
		b.arrived++
		if b.arrived == b.comm.p {
			b.comm.commitAllStaged()
			b.maxT += b.comm.model.BarrierLatency
			// Snapshot the release time per generation: early arrivals of
			// the NEXT round bump maxT before slow waiters of this round
			// wake, and reading the live maxT then would make a waiter's
			// clock depend on the host schedule.
			b.doneT = b.maxT
			b.arrived = 0
			b.gen++
			if r.prog != nil {
				r.prog.BarrierTick()
			}
			b.cond.Broadcast()
		} else {
			for gen == b.gen && !pool.Canceled() {
				b.cond.Wait()
			}
			if gen == b.gen {
				// Woken by cancellation: the round will never close —
				// some rank of the world is already unwinding. Leave the
				// rendezvous and unwind too.
				canceled = true
				return
			}
		}
		target = b.doneT
	}
	if r.running {
		pool.Yield(rendezvous)
	} else {
		rendezvous()
	}
	if canceled {
		pool.Checkpoint() // Canceled() held above: this unwinds
	}
	r.clock.AdvanceTo(ChargeBarrierWait, target)
	r.ckptT = r.clock.now
}

// Fence closes the current active-target epoch on w and opens the next one
// (MPI_Win_fence): all outstanding writes of this rank on w complete, and
// all ranks synchronize at the given barrier. The paper's pull engine never
// fences — passive target is the whole point — but the push engine does,
// once, so every contribution has landed before scores are read.
func (r *Rank) Fence(w *Window, b *Barrier) {
	r.FlushAll(w)
	b.Wait(r)
}
