package rma

// The fault plane of the RMA substrate: the crash-stop and wedge events of
// internal/fault, fired at a rank's remote one-sided operations. A recovered
// crash folds its cost through the charge tape as non-negative clock
// advances inserted ahead of the op's own charge, so the fault-free run's
// charge sequence is embedded verbatim in the faulted run's — which is what
// makes results bit-identical, SimTime reproducible at any worker count, and
// SimTime under faults ≥ fault-free (completion times and barrier maxima are
// monotone in their inputs). DESIGN.md §7 states the contract.

import (
	"repro/internal/fault"
	"repro/internal/sched"
)

// crashRestartNS is the modeled restart delay of a recovered crash-stop.
const crashRestartNS = 5e6

// SetFaults installs a fault schedule: every rank created after the call
// binds its own op counter from the spec. Like the charge-plane setters it
// must be called before RunCtx; a nil spec (or one that arms nothing) keeps
// the fault plane disabled at the cost of one nil check per issue path.
func (c *Comm) SetFaults(spec *fault.Spec) { c.faults = spec }

// SetProgress installs a run-progress counter: every rank created after
// the call ticks it on the masked checkpoint cadence, and barrier round
// closes bump its generation. Like the charge-plane setters it must be
// set before RunCtx; nil (the default) costs the hot path one predictable
// branch. The counter is host-side only — arming it cannot perturb a
// simulated bit (see sched.Progress).
func (c *Comm) SetProgress(p *sched.Progress) { c.prog = p }

// injectFaults counts one remote one-sided operation on the rank's fault
// schedule and fires whatever event it reaches, at the op's issue point,
// ahead of the op's own charge. Callers must hold r.faults != nil.
func (r *Rank) injectFaults() {
	crash, wedge := r.faults.Op()
	if crash {
		r.crashStop()
	}
	if wedge && r.running {
		// The wedge: this rank is stuck in host code and will never issue
		// another operation or reach another checkpoint. Park until an
		// external cancel (caller deadline, serve watchdog) unwinds the
		// run. Yield semantics require a held worker slot, hence the
		// r.running guard: a rank used outside any run has nothing that
		// could ever cancel it, and skips the park. No charge folds — a
		// wedged run never completes, so there is no result whose clocks
		// could observe it.
		r.comm.pool.WedgeUntilCanceled()
	}
}

// crashStop handles the crash-stop firing at this op's issue point.
//
// Fail-fast mode aborts the run with the deterministic CrashError: it
// surfaces as Comm.RunCtx's error and the remaining ranks unwind.
//
// Recovery mode models a restart plus re-execution from the rank's last
// barrier (ckptT, run start if none): the redo REPLAYS deterministically
// into exactly the state the first execution built — rank state is
// rank-local and every decision below the crash point is a pure function
// of position — so the substrate never actually re-runs it; it charges
// the restart delay plus the redo's duration (clock at the crash minus
// clock at the recovery point) as blocked time. Both charges are
// non-negative additions, so the fault-free charge sequence embeds
// verbatim in the recovered run: results bit-identical, SimTime ≥
// fault-free, reproducible at any worker count (DESIGN.md §7).
func (r *Rank) crashStop() {
	if !r.faults.Recovers() {
		sched.Abort(r.faults.CrashError(r.id))
	}
	// The redo duration reads the clock at the canonical issue point,
	// before the restart charge lands.
	redo := r.clock.Now() - r.ckptT
	r.charge(ChargeCrashRestart, crashRestartNS)
	if redo > 0 {
		r.charge(ChargeCrashRedo, redo)
	}
}
