package rma

import (
	"encoding/binary"
	"sync"
)

// Staged accumulates — the one cross-rank shared-write path of the
// simulated runtime, restructured for deterministic multicore execution.
//
// With every rank on its own goroutine, letting Accumulate read-modify-
// write the target region at issue time would serialize all ranks on a
// global lock (one acquire per 8-byte update) and make the byte-level
// apply order a function of the host schedule. Instead, each rank buffers
// its accumulates per (origin, target) in pooled slices — a purely
// rank-local append, no lock, no false sharing — and the buffers are
// replayed into the window regions at the points MPI makes them visible:
//
//   - the origin's own flush (MPI_Win_flush_all / unlock_all) commits
//     that origin's buffers for the flushed window, and
//   - a barrier commits every rank's remaining buffers in origin-rank
//     order, each buffer in issue order — the canonical order the golden
//     tests pin.
//
// Determinism at any worker count follows: all staged updates are uint64
// additions, which commute and associate exactly (mod 2^64), so the final
// region bytes cannot depend on which commit path ran first; the
// barrier's origin-rank order makes the canonical schedule explicit.
// Same-origin program order — an origin's own get observing its earlier
// accumulates — is preserved by committing the origin's buffers before the
// get snapshots the region (rma.go). Readers on OTHER
// ranks may only touch a region that peers accumulate into after a
// synchronization (the MPI separation rule every engine here already
// obeys), at which point all buffers have landed.
//
// applyMu serializes the replays themselves: commits from different ranks
// may race in host time, and the read-modify-write of one uint64 word
// must stay atomic with respect to other commits. It is taken once per
// commit (amortized over the whole buffer), not once per update — the
// lock the old immediate-apply Accumulate took per operation.
var applyMu sync.Mutex

// stagedAcc buffers one rank's pending accumulates for one (window,
// target) pair. The ups slice is pooled: commit resets it to length zero
// and the backing array is reused for the next batch.
type stagedAcc struct {
	win *Window
	ups []Update
}

// stagedFor returns the staging buffer for (w, target), creating it on
// first use. Buffers are indexed by target rank; the inner scan is over
// the windows this rank accumulates into per target — one for every
// engine here.
func (r *Rank) stagedFor(w *Window, target int) *stagedAcc {
	if r.staged == nil {
		r.staged = make([][]stagedAcc, r.comm.p)
	}
	lst := r.staged[target]
	for i := range lst {
		if lst[i].win == w {
			return &lst[i]
		}
	}
	r.staged[target] = append(lst, stagedAcc{win: w})
	return &r.staged[target][len(r.staged[target])-1]
}

// stage buffers one update for (w, target).
func (r *Rank) stage(w *Window, target, offset int, delta uint64) {
	s := r.stagedFor(w, target)
	s.ups = append(s.ups, Update{Offset: offset, Delta: delta})
	r.stagedOps++
}

// stageBatch buffers a batch of updates for (w, target), copying them so
// the caller may reuse its slice.
func (r *Rank) stageBatch(w *Window, target int, ups []Update) {
	s := r.stagedFor(w, target)
	s.ups = append(s.ups, ups...)
	r.stagedOps += len(ups)
}

// commitStaged replays this rank's staged buffers matching (w, target)
// into the window regions and resets them. w == nil matches every window;
// target < 0 matches every target. Callers gate on r.stagedOps > 0 so the
// accumulate-free hot paths never reach the lock.
func (r *Rank) commitStaged(w *Window, target int) {
	applyMu.Lock()
	r.commitStagedLocked(w, target)
	applyMu.Unlock()
}

func (r *Rank) commitStagedLocked(w *Window, target int) {
	if r.stagedOps == 0 {
		return
	}
	for t := range r.staged {
		if target >= 0 && t != target {
			continue
		}
		for i := range r.staged[t] {
			s := &r.staged[t][i]
			if (w == nil || s.win == w) && len(s.ups) > 0 {
				region := s.win.loc[t]
				for _, u := range s.ups {
					old := binary.LittleEndian.Uint64(region[u.Offset:])
					binary.LittleEndian.PutUint64(region[u.Offset:], old+u.Delta)
				}
				r.stagedOps -= len(s.ups)
				s.ups = s.ups[:0]
			}
		}
	}
}

// commitAllStaged replays every rank's remaining staged buffers in
// origin-rank order (ids ascending, handles per id in creation order,
// updates in issue order) — the canonical commit the barrier performs
// once all ranks have arrived. Safe then: arrived ranks publish their
// buffers to the closing rank via the barrier mutex, and none can issue
// further accumulates until released.
func (c *Comm) commitAllStaged() {
	c.mu.Lock()
	applyMu.Lock()
	for id := 0; id < c.p; id++ {
		for _, r := range c.byID[id] {
			r.commitStagedLocked(nil, -1)
		}
	}
	applyMu.Unlock()
	c.mu.Unlock()
}
