package rma

// The fault plane of the RMA substrate: deterministic seeded injection of
// transient one-sided failures, latency spikes and rank stall windows
// (internal/fault), recovered by a capped-backoff retry loop whose every
// cost folds through the charge tape as a descriptor.
//
// The recovery model: a remote one-sided operation is attempted, and each
// failed attempt costs a timeout-detection delay (the per-op timeout
// budget), a jittered exponential backoff sleep, and the wasted wire time
// of the attempt (retransmit at the unperturbed α+s·β of the op's bytes).
// After the schedule's capped number of failures the attempt is forced to
// succeed — faults cost simulated time, never correctness. All recovery
// charges are raw clock advances (Clock.AdvanceRaw): they are neither
// perturbed by the noise plane nor consume its RNG draws, so the
// fault-free run's charge and draw sequence is embedded verbatim in the
// faulted run's — which is what makes results bit-identical, SimTime
// reproducible at any worker count, and SimTime under faults ≥ fault-free
// (every added charge is non-negative, and completion times and barrier
// maxima are monotone in their inputs). DESIGN.md §7 states the contract.

import (
	"repro/internal/fault"
	"repro/internal/sched"
)

// SetFaults installs a deterministic fault schedule: every rank created
// after the call binds its own decision stream from the spec. Like the
// charge-plane setters it must be called before RunCtx; a nil spec (or one
// that cannot inject anything) keeps the fault plane disabled at the cost
// of one nil check per issue path.
func (c *Comm) SetFaults(spec *fault.Spec) { c.faults = spec }

// SetProgress installs a run-progress counter: every rank created after
// the call ticks it on the masked checkpoint cadence, and barrier round
// closes bump its generation. Like the charge-plane setters it must be
// set before RunCtx; nil (the default) costs the hot path one predictable
// branch. The counter is host-side only — arming it cannot perturb a
// simulated bit (see sched.Progress).
func (c *Comm) SetProgress(p *sched.Progress) { c.prog = p }

// injectFaults consults the rank's fault schedule at the issue point of
// one remote one-sided operation and charges the recovery it dictates, in
// canonical order ahead of the operation's own charge: the stall window
// opening at this op, then per failed attempt the timeout detection, the
// backoff sleep and the retransmitted wire time, then any absorbed
// latency spike on the successful attempt. Decisions are a pure function
// of (seed, rank, op-index, attempt), so the charge sequence is identical
// at any worker count. Callers must hold r.faults != nil.
func (r *Rank) injectFaults(cl fault.Class, size int) {
	o := r.faults.Op(cl)
	if o.Crashed() {
		r.crashStop(o)
	}
	if o.Wedged() && r.running {
		// The wedge class: this rank is stuck in host code and will never
		// issue another operation or reach another checkpoint. Park until
		// an external cancel (caller deadline, serve watchdog) unwinds the
		// run. Yield semantics require a held worker slot, hence the
		// r.running guard: a rank used outside any run has nothing that
		// could ever cancel it, and skips the park. No charge folds — a
		// wedged run never completes, so there is no result whose clocks
		// could observe it.
		r.comm.pool.WedgeUntilCanceled()
	}
	if st := o.StallNS(); st > 0 {
		r.charge(ChargeStall, 0, st)
	}
	if n := o.Failed(); n > 0 {
		pol := r.faults.Policy()
		cost := r.comm.model.RemoteCost(size)
		for a := 0; a < n; a++ {
			r.charge(ChargeTimeout, 0, pol.TimeoutNS)
			r.charge(ChargeRetryBackoff, 0, o.BackoffNS(a))
			r.charge(ChargeRetransmit, size, cost)
		}
	}
	if sp := o.SpikeNS(); sp > 0 {
		r.charge(ChargeTimeout, 0, sp)
	}
}

// crashStop handles the crash-stop class firing at this op's issue point.
//
// Fail-fast mode aborts the run with the deterministic CrashError: it
// surfaces as Comm.RunCtx's error and the remaining ranks unwind.
//
// Recovery mode models a restart plus re-execution from the rank's last
// barrier (ckptT, run start if none): the redo REPLAYS deterministically
// into exactly the state the first execution built — rank state is
// rank-local and every decision below the crash point is a pure function
// of position — so the substrate never actually re-runs it; it charges
// the redo's duration (clock at the crash minus clock at the recovery
// point) plus the restart delay as blocked time. Both charges fold raw
// (no noise draws), so the fault-free charge and draw sequence embeds
// verbatim in the recovered run: results bit-identical, SimTime ≥
// fault-free, reproducible at any worker count (DESIGN.md §8).
func (r *Rank) crashStop(o fault.Outcome) {
	if !o.CrashRecovers() {
		sched.Abort(o.CrashError(r.id))
	}
	// The redo duration reads the clock at the canonical issue point,
	// before the restart charge lands.
	redo := r.clock.Now() - r.ckptT
	r.charge(ChargeCrashRestart, 0, o.CrashRestartNS())
	if redo > 0 {
		r.charge(ChargeCrashRedo, 0, redo)
	}
}

// CacheFault consults the rank's fault schedule for one CLaMPI access and
// reports whether a cache-unavailability fault fires (Spec.CacheFailPct).
// The CLaMPI layer translates a firing into its degraded mode: flush the
// resident entries and let the engine fall back to the direct-RMA fetch
// flavor for the access.
func (r *Rank) CacheFault() bool {
	return r.faults != nil && r.faults.CacheOp()
}
