package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Supervisor manages named instances: the registry behind the lccd
// server's load/run/stop/ps surface. Beyond the registry it owns the two
// fleet-level robustness mechanisms (DESIGN.md §8):
//
//   - Memory budgeting: SetMemBudget bounds the total resident snapshot
//     bytes across all instances. A load (or unpark) that overshoots the
//     budget parks idle instances in LRU order — never busy or queued
//     ones — so overload degrades to reload latency instead of OOM.
//   - Manifest persistence: with SetManifestStore, every durable
//     instance's config is checksummed to the state directory on load and
//     removed on explicit stop. Recover replays the manifests after a
//     daemon restart — including a kill -9 — restoring the fleet lazily
//     (parked, rebuilt on first query) or eagerly.
//
// All methods are safe for concurrent use; per-run supervision
// (deadlines, cancellation, panic isolation, queueing) lives in the
// instances themselves.
type Supervisor struct {
	mu        sync.Mutex
	instances map[string]*Instance
	manifests *ManifestStore // nil = no persistence
	memBudget int64          // 0 = unbounded
	parks     int64          // instances parked by budget enforcement

	// Global admission (shed.go): runCap bounds supervised runs in flight
	// across the whole fleet — queued runs count, because a queued run is
	// a promise of future work the server has already accepted.
	runCap     int   // 0 = unbounded
	activeRuns int   // supervised runs in flight (queued + executing)
	shedRuns   int64 // runs rejected by the run cap
	shedLoads  int64 // loads rejected by the memory brownout

	scrub ScrubStats // integrity-scrubbing outcomes (scrub.go)
}

// NewSupervisor creates an empty registry with no memory budget and no
// manifest persistence.
func NewSupervisor() *Supervisor {
	return &Supervisor{instances: make(map[string]*Instance)}
}

// SetManifestStore enables manifest persistence: subsequent loads persist
// their config to the store, stops remove it, and Recover replays it.
// Call before serving traffic.
func (s *Supervisor) SetManifestStore(ms *ManifestStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifests = ms
}

// SetMemBudget bounds the total resident snapshot bytes across all
// instances; 0 removes the bound. Enforcement is by LRU parking of idle
// instances on each load/unpark (see ensureBudget).
func (s *Supervisor) SetMemBudget(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memBudget = bytes
}

// SetRunCap bounds supervised runs in flight (queued + executing) across
// all instances; 0 removes the bound. Past the cap Supervisor.Run sheds
// with a *ShedError matching ErrServerBusy instead of queueing.
func (s *Supervisor) SetRunCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runCap = n
}

// admitRun claims one global run slot or returns the typed shed error.
func (s *Supervisor) admitRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runCap > 0 && s.activeRuns >= s.runCap {
		s.shedRuns++
		return &ShedError{
			Reason:     "run-cap",
			ActiveRuns: s.activeRuns,
			RunCap:     s.runCap,
			sentinel:   ErrServerBusy,
		}
	}
	s.activeRuns++
	return nil
}

// releaseRun returns a global run slot.
func (s *Supervisor) releaseRun() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.activeRuns--
}

// admitLoad applies the memory brownout: when the fleet is over budget
// and LRU parking has nothing left to evict, new loads shed with a typed
// *ShedError rather than piling more snapshots onto a host already
// refusing to fit the ones it has. ensureBudget runs first so the load
// is only refused after eviction genuinely came up empty.
func (s *Supervisor) admitLoad() error {
	total := s.ensureBudget(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memBudget <= 0 || total <= s.memBudget {
		return nil
	}
	s.shedLoads++
	return &ShedError{
		Reason:        "memory-brownout",
		ResidentBytes: total,
		BudgetBytes:   s.memBudget,
		sentinel:      ErrBrownout,
	}
}

// Load creates, registers and starts an instance under name. A live
// instance already holding the name is an error (ErrAlreadyRunning); an
// exited one is replaced. A load that fails registers nothing — like a
// shed, it leaves no state behind, so health stays green and the corrected
// retry of the same name is admitted. A successful load persists the
// instance's manifest (when a store is set) and enforces the memory budget.
func (s *Supervisor) Load(name string, cfg Config) (*Instance, error) {
	// Global admission first (shed.go): a browned-out server refuses the
	// load before an instance is ever registered, so a shed leaves no
	// state behind.
	if err := s.admitLoad(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if old, ok := s.instances[name]; ok && old.State() != StateExited {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: instance %q: %w", name, ErrAlreadyRunning)
	}
	inst := NewInstance(name, cfg)
	inst.onResident = s.ensureBudget
	s.instances[name] = inst
	s.mu.Unlock()
	if err := inst.Start(); err != nil {
		s.mu.Lock()
		if s.instances[name] == inst { // a Stop mid-load may have let a newer Load replace it
			delete(s.instances, name)
		}
		s.mu.Unlock()
		return nil, err
	}
	s.persistManifest(inst)
	return inst, nil
}

// persistManifest saves the instance's manifest when persistence is on
// and the instance is durable (dataset-backed). Best-effort by contract:
// a full disk degrades recovery, not serving.
func (s *Supervisor) persistManifest(inst *Instance) {
	s.mu.Lock()
	ms := s.manifests
	s.mu.Unlock()
	if ms == nil {
		return
	}
	if m, ok := manifestFor(inst.Name(), inst.cfg); ok {
		_ = ms.Save(m)
	}
}

// ensureBudget enforces the memory budget now: while total resident
// snapshot bytes exceed it, the least-recently-used idle instance is
// parked (its manifest already persists, so it stays recoverable and
// serveable). Busy, queued, loading and exclude instances are never
// parked; when nothing is evictable the fleet is allowed to overshoot —
// parking running work would be worse than the memory pressure. It
// returns the resident total it stopped at (0 with no budget set).
//
// It is also the instances' residency hook: after any successful load
// (initial, Reload, unpark) the newly resident bytes may overshoot the
// budget, so enforcement runs with the loading instance as exclude — the
// query that triggered the load must win, every other idle instance is a
// parking candidate.
func (s *Supervisor) ensureBudget(exclude *Instance) (resident int64) {
	s.mu.Lock()
	budget := s.memBudget
	s.mu.Unlock()
	if budget <= 0 {
		return 0
	}
	insts := s.fleet()
	for {
		var (
			total       int64
			coldest     *Instance
			coldestUsed uint64
		)
		for _, inst := range insts {
			resident, idle, lastUsed, bytes := inst.residency()
			if !resident {
				continue
			}
			total += bytes
			if idle && inst != exclude && (coldest == nil || lastUsed < coldestUsed) {
				coldest, coldestUsed = inst, lastUsed
			}
		}
		if total <= budget || coldest == nil {
			return total
		}
		// Park the coldest candidate; a race with a fresh admission makes
		// Park return ErrBusy, which simply moves on to the next round.
		if err := coldest.Park(); err == nil {
			s.mu.Lock()
			s.parks++
			s.mu.Unlock()
		}
	}
}

// RecoveryReport summarizes one Recover pass: which instances were
// restored (and how) and which manifests were skipped, loudly, with their
// typed errors.
type RecoveryReport struct {
	Restored []string         // instance names restored from manifests
	Failed   []string         // manifests that loaded but whose instance failed to start (eager only)
	Skipped  []*ManifestError // unreadable manifests: corrupt or version-skewed
}

// Recover replays the manifest store after a daemon restart, restoring
// every persisted instance. eager rebuilds each snapshot immediately (a
// failing build leaves that instance registered unhealthy, in Failed);
// lazy (the default daemon mode) registers instances parked, so the first
// query against each rebuilds its snapshot on demand. Corrupt or
// version-skewed manifests are skipped with typed errors in the report —
// never fatal — and names already registered live are left untouched.
func (s *Supervisor) Recover(eager bool) RecoveryReport {
	s.mu.Lock()
	ms := s.manifests
	s.mu.Unlock()
	var rep RecoveryReport
	if ms == nil {
		return rep
	}
	manifests, skipped := ms.LoadAll()
	rep.Skipped = skipped
	for _, m := range manifests {
		cfg, err := m.Config()
		if err != nil {
			rep.Skipped = append(rep.Skipped, &ManifestError{
				Path: ms.Path(m.Name), Reason: err.Error(), Err: ErrManifestCorrupt,
			})
			continue
		}
		s.mu.Lock()
		if old, ok := s.instances[m.Name]; ok && old.State() != StateExited {
			s.mu.Unlock()
			continue
		}
		inst := newParkedInstance(m.Name, cfg)
		inst.onResident = s.ensureBudget
		s.instances[m.Name] = inst
		s.mu.Unlock()
		if eager {
			if err := inst.Reload(); err != nil {
				rep.Failed = append(rep.Failed, m.Name)
				continue
			}
		}
		rep.Restored = append(rep.Restored, m.Name)
	}
	return rep
}

// fleet returns every registered instance, in no order: callers walk the
// copy without holding the registry lock.
func (s *Supervisor) fleet() []*Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	insts := make([]*Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		insts = append(insts, inst)
	}
	return insts
}

// Get returns the named instance or ErrUnknownInstance.
func (s *Supervisor) Get(name string) (*Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[name]
	if !ok {
		return nil, fmt.Errorf("serve: instance %q: %w", name, ErrUnknownInstance)
	}
	return inst, nil
}

// Run executes a supervised query on the named instance. Global
// admission (the server-wide run cap) applies before the instance's own
// queue: a shed run never holds an instance slot, so per-instance
// priority/FIFO ordering is unaffected by the cap.
func (s *Supervisor) Run(ctx context.Context, name string, q Query) (*QueryResult, error) {
	inst, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	if err := s.admitRun(); err != nil {
		return nil, err
	}
	defer s.releaseRun()
	return inst.Run(ctx, q)
}

// Stop moves the named instance to exited and removes its manifest: an
// explicit stop is a statement the instance should not return, so it is
// the one transition that forgets durable state. The instance stays
// listed so its terminal state remains observable.
func (s *Supervisor) Stop(name string) error {
	inst, err := s.Get(name)
	if err != nil {
		return err
	}
	if err := inst.Stop(); err != nil {
		return err
	}
	s.mu.Lock()
	ms := s.manifests
	s.mu.Unlock()
	if ms != nil {
		_ = ms.Remove(name)
	}
	return nil
}

// List reports every registered instance, sorted by name.
func (s *Supervisor) List() []InstanceInfo {
	insts := s.fleet()
	infos := make([]InstanceInfo, len(insts))
	for i, inst := range insts {
		infos[i] = inst.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Healthy reports whether every non-exited instance is serving (ready,
// busy, or parked — a parked instance serves via transparent reload) —
// the health-endpoint predicate. A loading instance is not healthy: its
// load (the rebuild after a scrub mismatch too) may yet fail.
func (s *Supervisor) Healthy() bool {
	for _, info := range s.List() {
		switch info.State {
		case StateLoading.String(), StateUnhealthy.String():
			return false
		}
	}
	return true
}

// ServerInfo is the fleet-level half of the ps view: lifecycle-state
// counts across all instances plus the global-admission and robustness
// counters. cmd/lccd's TestDaemonChaos prologue asserts recovery against
// the state counts (states["parked"] after a lazy Recover).
type ServerInfo struct {
	Instances     int            `json:"instances"`
	States        map[string]int `json:"states"`
	ActiveRuns    int            `json:"active_runs"`
	RunCap        int            `json:"run_cap,omitempty"`
	ResidentBytes int64          `json:"resident_bytes"`
	BudgetBytes   int64          `json:"budget_bytes,omitempty"`
	ShedRuns      int64          `json:"shed_runs,omitempty"`
	ShedLoads     int64          `json:"shed_loads,omitempty"`
	Parks         int64          `json:"parks,omitempty"`
	Scrub         ScrubStats     `json:"scrub"`
}

// ServerInfo reports the fleet-level view.
func (s *Supervisor) ServerInfo() ServerInfo {
	insts := s.fleet()
	s.mu.Lock()
	info := ServerInfo{
		Instances:   len(insts),
		States:      make(map[string]int),
		ActiveRuns:  s.activeRuns,
		RunCap:      s.runCap,
		BudgetBytes: s.memBudget,
		ShedRuns:    s.shedRuns,
		ShedLoads:   s.shedLoads,
		Parks:       s.parks,
		Scrub:       s.scrub,
	}
	s.mu.Unlock()
	for _, inst := range insts {
		info.States[inst.State().String()]++
		info.ResidentBytes += inst.MemBytes()
	}
	return info
}

// Shutdown drains the registry: every instance stops admitting runs and
// fences its queue, then in-flight runs are awaited until ctx expires.
// All per-instance drain failures are collected and joined (errors.Join),
// each naming its instance, so a multi-instance drain failure reports
// every stuck instance rather than the first; instances are stopped
// regardless. Manifests are retained — a drained daemon restarts into the
// same fleet.
func (s *Supervisor) Shutdown(ctx context.Context) error {
	insts := s.fleet()
	for _, inst := range insts {
		// Fence admissions and flush queues first so the quiesce below
		// can only shrink.
		_ = inst.Stop() // already-exited instances are fine
	}
	var errs []error
	for _, inst := range insts {
		if err := inst.Quiesce(ctx); err != nil {
			errs = append(errs, fmt.Errorf("instance %q: %w", inst.Name(), err))
		}
	}
	return errors.Join(errs...)
}
