// Package serve is the supervision plane over the simulated engines: the
// layer that turns the one-shot library entrypoints into a long-lived
// analytics service (ROADMAP item 2, DESIGN.md §8).
//
// An Instance owns one loaded graph Snapshot (internal/lcc) — the
// immutable per-graph half of the engine setup: partition, per-rank CSRs,
// resolve table, delegation set — and serves queries
// against it. Every run gets a fresh communicator, clocks and caches, so
// queries share the snapshot and nothing else; results are bit-identical
// to the corresponding one-shot lcc.Run.
//
// The instance stores one of five states — loading, ready, unhealthy,
// parked (snapshot evicted, config retained), exited — changed only along
// the edges table under a per-instance lock; a ready instance with runs in
// flight reports busy. Runs are supervised end to end:
//
//   - Deadlines and cancellation: the run context threads through
//     rma.Comm.RunCtx into the scheduler; ranks observe cancellation at
//     their issue-point checkpoints and barrier waits and unwind cleanly.
//     A canceled run returns an error wrapping sched.ErrRunCanceled (and
//     context.DeadlineExceeded when a deadline caused it) and the
//     instance returns to ready — cancellation discards the run, never
//     the instance.
//   - Panic isolation: an engine-goroutine panic is converted into a
//     *sched.PanicError carrying the rank and stack. The instance flips
//     to unhealthy, its snapshot is discarded (Reload rebuilds it), the
//     per-rank scratch state is repooled by the engine's deferred close,
//     and the process lives.
//   - Admission control and queueing: at most Config.MaxConcurrent runs
//     execute; with Config.QueueDepth > 0 overflow parks in a bounded
//     priority queue (queue.go) instead of bouncing, and only overflow
//     past the queue bound returns ErrBusy.
//   - Parking: an idle instance's snapshot can be evicted (Park) under a
//     supervisor memory budget; the instance transparently rebuilds it on
//     the next query. A parked instance costs configuration bytes, not
//     graph bytes.
//
// A Supervisor manages named instances, enforces the global memory budget
// via LRU parking, and — when given a ManifestStore — persists each
// instance's manifest so a daemon restart (even kill -9) recovers the
// fleet. It is the backing store of the lccd server (cmd/lccd).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/sched"
)

// State is the lifecycle state of an Instance. Five are stored — loading,
// ready, unhealthy, parked, exited; StateBusy never is: State and Info
// report it for a ready instance with runs in flight. The stored state
// changes only in toLocked, along the edges below; any other request is
// rejected with a typed error rather than racing.
type State int32

const (
	StateLoading State = iota
	StateReady
	StateBusy
	StateUnhealthy
	StateExited
	StateParked
)

// edges lists, per stored state, the states an instance may move to.
// DESIGN.md §8 prints the same table with the event behind each row, and
// TestLifecycleTableMatchesDesign holds the two equal.
var edges = map[State][]State{
	StateLoading:   {StateReady, StateUnhealthy, StateExited},
	StateReady:     {StateLoading, StateUnhealthy, StateParked, StateExited},
	StateUnhealthy: {StateLoading, StateExited},
	StateParked:    {StateLoading, StateExited},
	StateExited:    {},
}

func (s State) String() string {
	switch s {
	case StateLoading:
		return "loading"
	case StateReady:
		return "ready"
	case StateBusy:
		return "busy"
	case StateUnhealthy:
		return "unhealthy"
	case StateExited:
		return "exited"
	case StateParked:
		return "parked"
	default:
		return "unknown"
	}
}

// Typed lifecycle errors. Handlers map them to protocol statuses; tests
// assert transition edges against them with errors.Is.
var (
	// ErrAlreadyRunning rejects a second Start on a started instance (or
	// a Supervisor.Load under a name that is still live).
	ErrAlreadyRunning = errors.New("serve: instance already started")
	// ErrInstanceExited rejects any operation on a stopped instance.
	ErrInstanceExited = errors.New("serve: instance exited")
	// ErrNotReady rejects runs while the instance is still loading.
	ErrNotReady = errors.New("serve: instance not ready")
	// ErrUnhealthy rejects runs after a panic flipped the instance; a
	// Reload restores service.
	ErrUnhealthy = errors.New("serve: instance unhealthy")
	// ErrBusy is the admission-control overflow: MaxConcurrent runs are
	// in flight and the admission queue (if any) is full.
	ErrBusy = errors.New("serve: instance busy")
	// ErrQueueTimeout rejects a queued run whose deadline-in-queue
	// expired before a slot freed; see QueueTimeoutError for the wait.
	ErrQueueTimeout = errors.New("serve: queue deadline expired")
	// ErrUnknownInstance is returned by the Supervisor for names it does
	// not hold.
	ErrUnknownInstance = errors.New("serve: unknown instance")
)

// Config describes what an Instance loads and how it admits runs.
type Config struct {
	// Dataset names a registered dataset (gen.Names); used when Graph is
	// nil.
	Dataset string
	// Graph, when non-nil, is served directly instead of loading Dataset.
	// Direct-graph instances are not durable: they cannot be rebuilt from
	// a manifest, so the supervisor neither persists nor parks them.
	Graph *graph.Graph

	// Ranks, Scheme and DelegateBytes pin the snapshot's distribution
	// (lcc.NewSnapshotOpts); queries inherit them regardless of their own
	// Options. Ranks 0 selects 1.
	Ranks         int
	Scheme        part.Scheme
	DelegateBytes int

	// Storage selects the host-side representation of the snapshot's
	// per-rank adjacency plane (lcc.StorageMode); MemBudgetBytes is the
	// StorageAuto budget. Host-side only — results are bit-identical
	// across modes (DESIGN.md §9).
	Storage        lcc.StorageMode
	MemBudgetBytes int64

	// MaxConcurrent bounds executing runs; 0 selects 1.
	MaxConcurrent int
	// QueueDepth bounds the admission queue holding runs past
	// MaxConcurrent. 0 disables queueing: overflow returns ErrBusy
	// immediately, the pre-queue behavior.
	QueueDepth int
	// DefaultTimeout applies to runs whose Query sets none; 0 = no
	// deadline.
	DefaultTimeout time.Duration
	// StallTimeout arms the run watchdog: a run whose progress counter
	// (sched.Progress — checkpoint ticks plus barrier generations) does
	// not move for this long is force-canceled through the scheduler's
	// abort path, the instance flips unhealthy, and the run fails with a
	// typed *StallError carrying per-rank progress and worker stacks
	// (watchdog.go). 0 disables the watchdog. Distinct from
	// DefaultTimeout: a deadline bounds total runtime, the stall timeout
	// bounds time *without forward progress* — a big query on a loaded
	// host can legitimately exceed any fixed deadline while never
	// stalling.
	StallTimeout time.Duration
}

// Counters aggregates an instance's served-run outcomes.
type Counters struct {
	Served   int64 // runs completed with results
	Canceled int64 // runs unwound by cancellation or deadline (queued or executing)
	Panicked int64 // runs that died on an engine panic
	Failed   int64 // runs that returned any other error
	Rejected int64 // admissions refused (ErrBusy overflow or a queue fence)
	TimedOut int64 // queued runs whose deadline-in-queue expired
	Stalled  int64 // runs the watchdog force-canceled for lack of progress
}

// useTick is the global recency clock behind LRU parking: every admission
// stamps its instance, and the supervisor evicts the smallest stamp.
var useTick atomic.Uint64

// Instance is one loaded graph serving queries. Create with NewInstance,
// bring up with Start; all methods are safe for concurrent use.
type Instance struct {
	name string
	cfg  Config

	// onResident, when set (to the Supervisor's ensureBudget, before
	// Start), runs after every successful snapshot load — initial, Reload
	// and unpark — so the global memory budget can be (re-)enforced; the
	// result is admitLoad's to use. Called outside the instance lock.
	onResident func(*Instance) int64

	mu        sync.Mutex
	cond      *sync.Cond // signaled whenever active drops or state changes
	state     State
	started   bool
	everReady bool // true once a load has succeeded; gates wait-vs-reject on loading
	active    int
	queue     waiterQueue
	seq       uint64 // admission sequence; FIFO tiebreak within a priority
	lastUsed  uint64 // useTick stamp of the latest admission or load
	snap      *lcc.Snapshot
	failure   error // what flipped unhealthy (load error or *sched.PanicError)
	ctr       Counters
}

// NewInstance creates an instance in the loading state. Start loads it.
func NewInstance(name string, cfg Config) *Instance {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	inst := &Instance{name: name, cfg: cfg, state: StateLoading}
	inst.cond = sync.NewCond(&inst.mu)
	return inst
}

// newParkedInstance creates an instance directly in the parked state — the
// lazy recovery path: the manifest proves a load once succeeded, so the
// first query (or an explicit Reload) rebuilds the snapshot on demand.
func newParkedInstance(name string, cfg Config) *Instance {
	inst := NewInstance(name, cfg)
	inst.started = true
	inst.everReady = true
	inst.state = StateParked
	return inst
}

// Name returns the instance name.
func (inst *Instance) Name() string { return inst.name }

// State returns the current lifecycle state, with a ready instance that
// has runs in flight reported as busy.
func (inst *Instance) State() State {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.viewLocked()
}

func (inst *Instance) viewLocked() State {
	if inst.state == StateReady && inst.active > 0 {
		return StateBusy
	}
	return inst.state
}

// idleLocked reports that no run is in flight or queued.
func (inst *Instance) idleLocked() bool { return inst.active == 0 && inst.queue.Len() == 0 }

// toLocked is the only place the stored state changes after construction.
// A move outside the edges table is a bug in this package and panics; every
// state but ready gives up the snapshot; waiters on cond are woken.
func (inst *Instance) toLocked(to State) {
	if !slices.Contains(edges[inst.state], to) {
		panic(fmt.Sprintf("serve: instance %q: no lifecycle edge %v → %v", inst.name, inst.state, to))
	}
	inst.state = to
	if to != StateReady {
		inst.snap = nil
	}
	inst.cond.Broadcast()
}

// refusalLocked is the typed error an instance that has stopped serving
// hands out; nil while it serves, or may again without a Reload.
func (inst *Instance) refusalLocked() error {
	switch inst.state {
	case StateExited:
		return ErrInstanceExited
	case StateUnhealthy:
		return fmt.Errorf("%w (cause: %v)", ErrUnhealthy, inst.failure)
	}
	return nil
}

// failLocked ends service with err as the recorded cause — a failed load, a
// panicked run, a stalled run — and fences the queue with it.
func (inst *Instance) failLocked(err error) {
	inst.failure = err
	inst.toLocked(StateUnhealthy)
	inst.flushQueueLocked(inst.refusalLocked())
}

// MemBytes reports the resident host bytes of the instance's snapshot
// adjacency plane — the quantity the supervisor's memory budget governs.
// A parked (or not-yet-loaded) instance reports 0.
func (inst *Instance) MemBytes() int64 {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.snap == nil {
		return 0
	}
	return inst.snap.LocalBytes()
}

// touchLocked stamps the instance as most recently used. Caller holds mu.
func (inst *Instance) touchLocked() { inst.lastUsed = useTick.Add(1) }

// Start loads the instance's graph and snapshot and moves it to ready. A
// second Start returns ErrAlreadyRunning; Start after Stop returns
// ErrInstanceExited. On a load failure the instance is unhealthy with the
// cause recorded.
func (inst *Instance) Start() error {
	inst.mu.Lock()
	if inst.state == StateExited {
		inst.mu.Unlock()
		return ErrInstanceExited
	}
	if inst.started {
		inst.mu.Unlock()
		return ErrAlreadyRunning
	}
	return inst.loadLocked()
}

// loadLocked is the one way a load starts: Start, Reload, admit's unpark
// and a scrub mismatch call it with the lock held; it moves to loading
// (Start is there already), releases the lock and builds. A load already in
// flight refuses with ErrBusy — a second build would install over the first
// under the runs the first had admitted. A successful load ends in the
// residency hook, outside the lock: the new bytes may push the fleet past
// the supervisor's budget, and the hook parks *other* instances only.
func (inst *Instance) loadLocked() error {
	if inst.state != StateLoading {
		inst.toLocked(StateLoading)
	} else if inst.started {
		inst.mu.Unlock()
		return ErrBusy
	}
	inst.started = true
	inst.mu.Unlock()
	if err := inst.load(); err != nil {
		return err
	}
	if inst.onResident != nil {
		inst.onResident(inst)
	}
	return nil
}

// load builds the snapshot outside the lock and installs it under it.
func (inst *Instance) load() error {
	var g graph.Store = inst.cfg.Graph
	var err error
	if inst.cfg.Graph == nil {
		g, err = gen.Load(inst.cfg.Dataset)
	}
	var snap *lcc.Snapshot
	if err == nil {
		snap, err = lcc.NewSnapshotOpts(g, lcc.SnapshotOptions{
			Ranks:          inst.cfg.Ranks,
			Scheme:         inst.cfg.Scheme,
			DelegateBytes:  inst.cfg.DelegateBytes,
			Storage:        inst.cfg.Storage,
			MemBudgetBytes: inst.cfg.MemBudgetBytes,
		})
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state == StateExited {
		// Stopped while loading: stay exited, discard the work.
		return ErrInstanceExited
	}
	if err != nil {
		inst.failLocked(err)
		return err
	}
	inst.toLocked(StateReady)
	inst.snap, inst.failure = snap, nil
	inst.everReady = true
	inst.touchLocked()
	return nil
}

// Reload rebuilds the snapshot and restores service — the recovery path
// out of unhealthy and the eager path out of parked. It refuses while
// runs are in flight or queued or another load is (ErrBusy), before Start
// (ErrNotReady) and after Stop (ErrInstanceExited).
func (inst *Instance) Reload() error {
	inst.mu.Lock()
	switch {
	case inst.state == StateExited:
		inst.mu.Unlock()
		return ErrInstanceExited
	case !inst.started:
		inst.mu.Unlock()
		return ErrNotReady
	case !inst.idleLocked():
		inst.mu.Unlock()
		return ErrBusy
	}
	return inst.loadLocked()
}

// Park evicts the snapshot of an idle instance while keeping it
// registered and serveable: the state flips to parked, the snapshot is
// released to the collector, and the next query (or Reload) transparently
// rebuilds it from the instance config via the dataset registry and its
// disk cache. Busy or queued instances refuse with ErrBusy — parking
// never cancels work — and only a ready instance parks (ErrNotReady
// otherwise). Parking an already parked instance is a no-op.
func (inst *Instance) Park() error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	switch {
	case inst.state == StateExited:
		return ErrInstanceExited
	case inst.state == StateParked:
		return nil
	case !inst.idleLocked():
		return ErrBusy
	case inst.state != StateReady:
		return ErrNotReady
	}
	inst.toLocked(StateParked)
	return nil
}

// Stop moves the instance to the terminal exited state. New runs are
// rejected with ErrInstanceExited, queued runs are fenced out with the
// same error before in-flight runs drain; runs already executing complete
// against the snapshot they captured (Quiesce waits for them). A second
// Stop returns ErrInstanceExited.
func (inst *Instance) Stop() error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state == StateExited {
		return ErrInstanceExited
	}
	inst.toLocked(StateExited)
	inst.flushQueueLocked(ErrInstanceExited)
	return nil
}

// Quiesce blocks until no run is in flight or queued, or ctx expires —
// the drain half of a graceful shutdown (call Stop first to fence new
// admissions and flush the queue).
func (inst *Instance) Quiesce(ctx context.Context) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			inst.mu.Lock()
			inst.cond.Broadcast()
			inst.mu.Unlock()
		case <-done:
		}
	}()
	inst.mu.Lock()
	defer inst.mu.Unlock()
	for !inst.idleLocked() && ctx.Err() == nil {
		inst.cond.Wait()
	}
	return ctx.Err()
}

// Query selects the engine and per-run options of one supervised run. The
// snapshot's distribution (ranks, scheme, delegation) overrides the
// corresponding Options fields; method, caching, workers, charge plane
// and faults belong to the query.
type Query struct {
	// Engine is "lcc" (default) or "jaccard".
	Engine string
	// Options are the engine options for this run.
	Options lcc.Options
	// Timeout bounds the run; 0 applies the instance default, negative
	// disables the deadline even when the instance has one.
	Timeout time.Duration
	// Priority orders queued admissions: higher runs first, FIFO within
	// a priority. Ignored when a slot is free or queueing is off.
	Priority int
	// QueueTimeout bounds the time this run may wait in the admission
	// queue; past it the run fails with ErrQueueTimeout (the error is a
	// *QueueTimeoutError carrying the measured wait). 0 = wait as long
	// as the context allows.
	QueueTimeout time.Duration
}

// QueryResult summarizes one completed run.
type QueryResult struct {
	Engine    string        `json:"engine"`
	SimTime   float64       `json:"sim_time_ns"`
	Triangles int64         `json:"triangles,omitempty"`
	SumT      int64         `json:"sum_t,omitempty"`
	ScoreBits uint64        `json:"score_bits"` // checksum of the score vector (see ScoreBits)
	HitRate   float64       `json:"hit_rate,omitempty"`
	Wall      time.Duration `json:"wall_ns"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"` // time spent in the admission queue

	// Full engine results for in-process callers; elided on the wire.
	LCC     *lcc.Result        `json:"-"`
	Jaccard *lcc.JaccardResult `json:"-"`
}

// ScoreBits is the float bit pattern of the score sum — the same cheap
// whole-vector checksum the golden determinism tests pin.
func ScoreBits(scores []float64) uint64 {
	var s float64
	for _, x := range scores {
		s += x
	}
	return math.Float64bits(s)
}

// Run executes one supervised query. The error is one of the typed
// admission errors (ErrNotReady, ErrUnhealthy, ErrInstanceExited, ErrBusy
// on queue overflow, ErrQueueTimeout past the deadline-in-queue), a
// cancellation (wraps sched.ErrRunCanceled, or the context cause when
// canceled while queued), a panic conversion (*sched.PanicError — the
// instance is unhealthy afterwards), or an engine error (e.g.
// *fault.CrashError in fail-fast mode, which leaves the instance serving:
// a deterministic simulated crash is a run outcome, not an instance
// failure). A query against a parked instance transparently reloads the
// snapshot first.
func (inst *Instance) Run(ctx context.Context, q Query) (*QueryResult, error) {
	snap, queueWait, err := inst.admit(ctx, q)
	if err != nil {
		return nil, err
	}
	timeout := q.Timeout
	if timeout == 0 {
		timeout = inst.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if inst.cfg.StallTimeout > 0 {
		// Arm the watchdog: the run gets its own progress counter and a
		// cancel-with-cause wrapper; a detected stall cancels the context
		// with a *StallError cause, which the scheduler's unwind threads
		// back as this run's error (watchdog.go).
		prog := sched.NewProgress(snap.Ranks())
		q.Options.Progress = prog
		wctx, wcancel := context.WithCancelCause(ctx)
		ctx = wctx
		defer wcancel(nil)
		stop := inst.watchRun(wctx, wcancel, prog)
		defer stop()
	}
	start := time.Now()
	res, err := execute(ctx, snap, q)
	inst.finish(err)
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	res.QueueWait = queueWait
	return res, nil
}

// admit applies the lifecycle and admission checks and claims a run slot,
// unparking, waiting on an in-flight reload, or queueing as the state and
// config dictate. On success it returns the snapshot to run against and
// the time spent queued.
func (inst *Instance) admit(ctx context.Context, q Query) (*lcc.Snapshot, time.Duration, error) {
	inst.mu.Lock()
	for {
		switch inst.state {
		case StateParked:
			// Transparent unpark: the first query flips the instance to
			// loading and rebuilds the snapshot; concurrent queries take
			// the loading branch below and wait for it.
			if err := inst.loadLocked(); err != nil {
				return nil, 0, err
			}
			inst.mu.Lock()
			continue
		case StateLoading:
			if !inst.everReady {
				// Initial load: rejecting is the contract (ErrNotReady);
				// only reloads of a previously serving instance — an
				// unpark, a Reload, the rebuild after a scrub mismatch —
				// are waited out. If that reload fails the woken waiter
				// gets the typed unhealthy error.
				inst.mu.Unlock()
				return nil, 0, ErrNotReady
			}
			inst.cond.Wait()
			continue
		case StateUnhealthy, StateExited:
			err := inst.refusalLocked()
			inst.mu.Unlock()
			return nil, 0, err
		}
		// Ready: claim a slot, queue, or reject.
		if inst.active < inst.cfg.MaxConcurrent {
			inst.active++
			inst.touchLocked()
			snap := inst.snap
			inst.mu.Unlock()
			return snap, 0, nil
		}
		if inst.cfg.QueueDepth <= 0 || inst.queue.Len() >= inst.cfg.QueueDepth {
			inst.ctr.Rejected++
			inst.mu.Unlock()
			return nil, 0, ErrBusy
		}
		return inst.enqueueLocked(q, ctx.Done(), func() error { return context.Cause(ctx) })
	}
}

// finish applies the run's outcome to the lifecycle and releases its slot:
// a panic or a stall of a serving instance flips it unhealthy (failLocked);
// every other outcome leaves it serving and hands the freed slot to the
// queue.
func (inst *Instance) finish(err error) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	var pe *sched.PanicError
	var se *StallError
	switch {
	case err == nil:
		inst.ctr.Served++
	case errors.As(err, &se):
		// A watchdog stall is a cancellation mechanically (the run was
		// unwound through the abort path) but an instance failure
		// semantically: something in this process stopped making progress,
		// and the next run would inherit it. Checked before the canceled
		// class — a stall error wraps the cancellation sentinel.
		inst.ctr.Stalled++
	case errors.Is(err, sched.ErrRunCanceled):
		inst.ctr.Canceled++
	case errors.As(err, &pe):
		inst.ctr.Panicked++
	default:
		inst.ctr.Failed++
	}
	// A stall or a panic ends service, unless the instance has left ready
	// already: a sibling run failed first, or Stop came in between.
	if (se != nil || pe != nil) && inst.state == StateReady {
		inst.failLocked(err)
	}
	inst.releaseSlotLocked()
}

// execute dispatches the query to its engine on the captured snapshot.
// Panic conversion happens below, in the scheduler: sched.Pool.RunCtx
// recovers rank-body panics into *sched.PanicError, so a misbehaving
// engine can fail this run but not the process.
func execute(ctx context.Context, snap *lcc.Snapshot, q Query) (*QueryResult, error) {
	switch q.Engine {
	case "", "lcc":
		res, err := snap.RunCtx(ctx, q.Options)
		if err != nil {
			return nil, err
		}
		return &QueryResult{
			Engine: "lcc", SimTime: res.SimTime,
			Triangles: res.Triangles, SumT: res.SumT,
			ScoreBits: ScoreBits(res.LCC), HitRate: res.HitRate(),
			LCC: res,
		}, nil
	case "jaccard":
		res, err := snap.RunJaccardCtx(ctx, q.Options)
		if err != nil {
			return nil, err
		}
		return &QueryResult{
			Engine: "jaccard", SimTime: res.SimTime,
			ScoreBits: ScoreBits(res.Scores),
			Jaccard:   res,
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown engine %q", q.Engine)
	}
}

// InstanceInfo is the ps/health view of one instance.
type InstanceInfo struct {
	Name     string   `json:"name"`
	Dataset  string   `json:"dataset,omitempty"`
	State    string   `json:"state"`
	Ranks    int      `json:"ranks"`
	Vertices int      `json:"vertices,omitempty"`
	Arcs     int64    `json:"arcs,omitempty"`
	Active   int      `json:"active"`
	Queued   int      `json:"queued"`
	MemBytes int64    `json:"mem_bytes,omitempty"`
	Failure  string   `json:"failure,omitempty"`
	Counters Counters `json:"counters"`
}

// Info reports the instance's current state and counters.
func (inst *Instance) Info() InstanceInfo {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	info := InstanceInfo{
		Name:     inst.name,
		Dataset:  inst.cfg.Dataset,
		State:    inst.viewLocked().String(),
		Ranks:    inst.cfg.Ranks,
		Active:   inst.active,
		Queued:   inst.queue.Len(),
		Counters: inst.ctr,
	}
	if inst.snap != nil {
		g := inst.snap.Graph()
		info.Vertices = g.NumVertices()
		info.Arcs = int64(g.NumArcs())
		info.MemBytes = inst.snap.LocalBytes()
	}
	if inst.failure != nil {
		info.Failure = inst.failure.Error()
	}
	return info
}

// residency reports the eviction-relevant view of the instance under its
// lock: whether a snapshot is resident, whether the instance is idle
// (parkable), its recency stamp and its resident bytes.
func (inst *Instance) residency() (resident, idle bool, lastUsed uint64, bytes int64) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.snap == nil {
		return false, false, inst.lastUsed, 0
	}
	return true, inst.state == StateReady && inst.idleLocked(), inst.lastUsed, inst.snap.LocalBytes()
}
