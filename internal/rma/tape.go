package rma

// The charge tape — model/host clock decoupling for the fetch plane.
//
// Every simulated cost a rank incurs used to be an ad-hoc float fold
// scattered through the call sites: Get computed a completion time inline,
// Compute advanced the clock in place, and the CLaMPI caches reached
// through the rank's clock on every hit. That coupling pins the host's
// execution schedule to the model's charge order: nothing may be batched,
// hoisted or pipelined without moving float accumulation out of the
// canonical order the golden tests pin — and nothing can PROVE that a host-side restructuring left
// that order intact.
//
// The tape names every charge as a (kind, bytes) descriptor in canonical
// program order. A descriptor folds into the float clock at its canonical
// point — the fold IS the op's own charge arithmetic, so it is free — and
// a ChargeObserver, when one is installed, sees each fold: kind, bytes, raw
// duration and the clock after it. The recorded per-rank sequences of the
// golden configurations are pinned as digests (tape_equiv_test.go), which
// is what licenses the fetch plane's host-side freedoms — the lookahead-k
// pipeline, inline cache hits that never materialize a request,
// caller-owned requests — and pins down what may NOT move: a charge's
// canonical position. DESIGN.md §6 states the contract.

// ChargeKind identifies the cost expression a tape entry folds. The kinds
// mirror the charge sites of the simulated machine, not Go call sites: one
// kind per distinct (cost formula, counter set) pair.
type ChargeKind uint8

const (
	// ChargeOps is modeled computation: ops × κ, the rank's own work.
	ChargeOps ChargeKind = iota
	// ChargeLocalRead is a local memory read charged via LocalCost(bytes),
	// work like ChargeOps (the engines' local adjacency reads).
	ChargeLocalRead
	// ChargeNS is a raw modeled duration in ns, work like ChargeOps: TriC's
	// per-query handling on its two-sided ranks. On an rma rank only
	// tests charge it, to stand a clock where they need it; the kind keeps
	// its number so the kinds after it, and the tape digests, keep theirs.
	ChargeNS
	// ChargeGetLocal is a one-sided read served from the rank's own
	// region: LocalCost(bytes), LocalGets/LocalBytes counters, and the
	// request's completion stamp.
	ChargeGetLocal
	// ChargeGetRemote is a one-sided remote read: no clock advance at
	// issue, but the in-flight duration α+s·β, the request's completion
	// time and the Gets/RemoteBytes/GetCost counters
	// are established at the issue point of the canonical order.
	ChargeGetRemote
	// ChargeCacheHit is a CLaMPI hit served from the cache: HitCost(bytes).
	ChargeCacheHit
	// ChargeCacheMiss is CLaMPI's per-miss bookkeeping overhead:
	// CacheMissOverhead, independent of size.
	ChargeCacheMiss
	// ChargeCacheManage is CLaMPI management work proportional to a byte
	// count at local-memory speed — storing a fetched entry, growing the
	// buffer — charged as LocalCost(bytes) with no counter side effects.
	ChargeCacheManage
	// ChargeCrashRestart is the modeled restart delay of a recovered
	// crash-stop (the rank rebooting; internal/fault). Both crash kinds
	// add a non-negative duration to the clock, so the fault-free charge
	// sequence stays embedded in the faulted one.
	ChargeCrashRestart
	// ChargeCrashRedo is the re-execution of the work between the rank's
	// last barrier and the crash point, charged as blocked time rather
	// than re-run: the redo replays deterministically into the same state
	// the first execution left, so only its duration — clock at the crash
	// minus clock at the last barrier — is modeled (DESIGN.md §8).
	ChargeCrashRedo

	// The ledger-only kinds: clock movements the tape does not record,
	// booked in the rank's Ledger alone. The time blocked in a Request's
	// Wait, in FlushAll and in a Barrier's Wait, ...
	ChargeGetWait
	ChargeFlushWait
	ChargeBarrierWait
	// ... the local-memory cost of an accumulate that targets the rank
	// itself ...
	ChargeAccLocal
	// ... and a TriC rank's two-sided sends and receives (matching, wire,
	// copy).
	ChargeSend
	ChargeRecv

	// NumLedgerSlots is the length of a Ledger: one slot per kind.
	NumLedgerSlots
)

// numChargeKinds bounds the kinds the tape records and an observer sees.
const numChargeKinds = ChargeGetWait

// Ledger is where a Clock's simulated time went: slot k holds the sum of
// the clock movements charged as kind k. Every movement of a clock is
// booked in exactly one slot, so the slots sum to the clock up to float
// regrouping (≤ 2 ulp), and the slots' bits, like the clock's, are the
// same at every worker count (TestLedgerLaws holds both). ChargeGetRemote's
// slot stays 0: a remote get moves the clock only at its Wait.
type Ledger [NumLedgerSlots]float64

// Comm returns the ledger's communication time: every slot after the
// rank's own work (ChargeOps, ChargeLocalRead, ChargeNS). Waits, cache
// service, local gets and accumulates, crash recovery and two-sided
// messages all count — the split behind §IV's communication share.
func (l *Ledger) Comm() float64 {
	var t float64
	for k := ChargeGetLocal; k < NumLedgerSlots; k++ {
		t += l[k]
	}
	return t
}

// waits returns the time blocked in gets, flushes and barriers: the
// Counters.FlushWait a Rank reports.
func (l *Ledger) waits() float64 {
	return l[ChargeGetWait] + l[ChargeFlushWait] + l[ChargeBarrierWait]
}

var chargeKindNames = [NumLedgerSlots]string{
	"ops", "local-read", "ns", "get-local", "get-remote", "cache-hit", "cache-miss",
	"cache-manage", "crash-restart", "crash-redo", "get-wait", "flush-wait", "barrier-wait",
	"acc-local", "send", "recv",
}

func (k ChargeKind) String() string {
	if k < NumLedgerSlots {
		return chargeKindNames[k]
	}
	return "unknown"
}

// ChargeObserver observes every charge of a run at its fold point, in
// canonical order per rank: kind and bytes identify the descriptor, ns is
// the raw duration for ChargeNS entries (0 otherwise), and now is the
// rank's clock immediately after the fold. Observers are a diagnostic
// surface (the charge-digest tests record tapes with one); they run on
// the rank's goroutine, so an observer may keep per-rank state without
// locking but must not touch shared state.
type ChargeObserver func(rank int, kind ChargeKind, bytes int, ns, now float64)

// SetChargeObserver installs an observer for all ranks of the world. It
// must be called before RunCtx; installing one mid-run is a race.
func (c *Comm) SetChargeObserver(o ChargeObserver) { c.observer = o }

// fold charges a modeled cost of d ns: the clock moves by d, booked as
// kind; and a tape kind is shown to the observer.
// Compute and ChargeLocalRead, which run once per edge, write the same body
// out rather than pay a call.
func (r *Rank) fold(kind ChargeKind, bytes int, d float64) {
	r.clock.Advance(kind, d)
	if r.observer != nil && kind < numChargeKinds {
		r.observer(r.id, kind, bytes, 0, r.clock.now)
	}
}

// charge folds one crash-recovery descriptor (internal/rma/fault.go) and
// shows it to the observer. Its duration is not a pure function of the
// kind, so it rides to the observer as ns.
func (r *Rank) charge(kind ChargeKind, ns float64) {
	r.clock.Advance(kind, ns)
	if r.observer != nil {
		r.observer(r.id, kind, 0, ns, r.clock.now)
	}
}

// ChargeLocalRead charges a local memory read of the given byte count at
// LocalCost, the rank's own work — the engines' charge for reading an
// adjacency list out of their own partition, without inventing the
// duration at the call site. fold's body, written out.
func (r *Rank) ChargeLocalRead(bytes int) {
	r.checkpoint()
	r.clock.Advance(ChargeLocalRead, r.comm.model.LocalCost(bytes))
	if r.observer != nil {
		r.observer(r.id, ChargeLocalRead, bytes, 0, r.clock.now)
	}
}

// ChargeCacheHit charges serving bytes from an RMA cache (HitCost). Part of
// the cache charge surface the CLaMPI layer records as descriptors instead
// of reaching into the clock; the cache kinds move the clock only, and the
// time they take is read from the ledger.
func (r *Rank) ChargeCacheHit(bytes int) {
	r.fold(ChargeCacheHit, bytes, r.comm.model.HitCost(bytes))
}

// ChargeCacheMissOverhead charges CLaMPI's fixed per-miss bookkeeping cost.
func (r *Rank) ChargeCacheMissOverhead() {
	r.fold(ChargeCacheMiss, 0, r.comm.model.CacheMissOverhead)
}

// ChargeCacheManage charges cache-management work proportional to bytes at
// local-memory cost (entry installation, buffer growth).
func (r *Rank) ChargeCacheManage(bytes int) {
	r.fold(ChargeCacheManage, bytes, r.comm.model.LocalCost(bytes))
}
