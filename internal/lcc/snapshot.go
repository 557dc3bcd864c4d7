package lcc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/clampi"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rma"
)

// Snapshot is the per-graph half of a distributed run: the partition, the
// extracted per-rank CSRs, the precomputed (start,end) offset pairs the
// windows expose, the packed resolve table and the static delegation
// replica. All of it is immutable once built and — unlike the communicator,
// the caches and the clocks — independent of any particular query, so one
// snapshot is shared by any number of sequential or concurrent runs over
// the same graph (the serving layer keeps exactly one per loaded instance).
//
// The split is conservative by construction: Snapshot.RunCtx builds its
// windows from the same pair arrays makeGraphWindows would compute, so a
// run through a snapshot is bit-identical to the corresponding lcc.Run.
//
// The two mutable things a snapshot owns are host memory, invisible to the
// model. One is a free list of CLaMPI instances (caches) that cached runs
// recycle instead of rebuilding their hash tables, heaps and slabs per rank
// per query. clampi.Cache.Reset hands each out in the just-constructed
// state, so the list carries no model-visible per-run state and a run's
// results do not depend on what ran before it. It holds at most Workers ×
// concurrent cached runs pairs (a rank body holds one pair, and
// internal/sched runs at most Workers bodies of a run at once). The other is
// the orientation index (orient, see orientIndex): per-vertex constants of
// the graph — where adj(v) crosses v, and a dense set over a long, dense
// hub's upper list — that RunCtx's ranks fill on first fetch and every later
// edge and run reads instead of searching. It grows to at most 4 bytes per
// vertex plus, per dense hub, 80 bytes and twelve per spanned 64-id word.
// Neither is counted by LocalBytes; both are freed with the snapshot.
type Snapshot struct {
	src           graph.Store
	kind          graph.Kind
	n             int
	ranks         int
	scheme        part.Scheme
	delegateBytes int
	storage       StorageMode

	pt      *part.Partition
	locals  []*part.LocalCSR
	pairs   [][]uint64
	resolve []uint64
	deleg   *Delegation

	// sums / resolveSum are the build-time CRC-32C of the resident tables
	// (integrity.go); Verify re-checks them for the snapshot's lifetime.
	sums       []rankSums
	resolveSum uint32

	caches cachePool
	orient *orientIndex
}

// cachePair is one rank's (C_offsets, C_adj) instances. They recycle as a
// pair so each keeps its role, and with it backing arrays of the right
// shape: the two caches differ 16× in capacity and in table geometry.
type cachePair struct{ off, adj *clampi.Cache }

// cachePool is a snapshot's free list of cache pairs (Snapshot.caches).
type cachePool struct {
	mu   sync.Mutex
	free []cachePair
}

// take removes a pair from the pool; ok is false when the pool is empty or
// nil.
func (p *cachePool) take() (cp cachePair, ok bool) {
	if p == nil {
		return cp, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return cp, false
	}
	cp, p.free[n-1] = p.free[n-1], cachePair{}
	p.free = p.free[:n-1]
	return cp, true
}

// recycle hands w's caches to the pool. Only a rank body that ran to
// completion may call it, after its last use of them (w.stats): the caches
// of a rank that unwound — cancellation, panic, stall-cancel, crash-stop —
// may hold a miss in flight and are left to the garbage collector.
func (p *cachePool) recycle(w *worker) {
	if w.cOff == nil {
		return
	}
	cp := cachePair{w.cOff, w.cAdj}
	w.cOff, w.cAdj = nil, nil
	p.mu.Lock()
	p.free = append(p.free, cp)
	p.mu.Unlock()
}

// SnapshotOptions are the per-graph half of Options: everything the
// snapshot pins for all queries executed on it.
type SnapshotOptions struct {
	// Ranks is the number of computing nodes p; 0 selects 1.
	Ranks int
	// Scheme is the 1D vertex distribution; Block is the paper's default.
	Scheme part.Scheme
	// DelegateBytes is the static-delegation budget per rank; 0 = off.
	DelegateBytes int
	// Storage selects the host-side representation of the per-rank
	// adjacency plane; see StorageMode. Host-side only — results are
	// bit-identical across modes.
	Storage StorageMode
	// MemBudgetBytes is the StorageAuto budget; see Options.
	MemBudgetBytes int64
}

// NewSnapshot partitions g over the given rank count and precomputes every
// per-graph table of the engine setup. ranks == 0 selects 1. The snapshot
// pins the distribution: queries executed on it inherit its rank count,
// scheme and delegation budget regardless of what their Options say.
func NewSnapshot(g graph.Store, ranks int, scheme part.Scheme, delegateBytes int) (*Snapshot, error) {
	return NewSnapshotOpts(g, SnapshotOptions{Ranks: ranks, Scheme: scheme, DelegateBytes: delegateBytes})
}

// NewSnapshotOpts is NewSnapshot with the full per-graph option set,
// including the storage mode the per-rank CSRs are extracted in.
func NewSnapshotOpts(g graph.Store, so SnapshotOptions) (*Snapshot, error) {
	if so.Ranks == 0 {
		so.Ranks = 1
	}
	if so.Ranks < 1 {
		return nil, fmt.Errorf("lcc: invalid rank count %d", so.Ranks)
	}
	pt, err := part.Build(so.Scheme, g, so.Ranks)
	if err != nil {
		return nil, err
	}
	locals := extractLocals(g, pt, so.Storage, so.MemBudgetBytes)
	pairs := make([][]uint64, len(locals))
	for s, lc := range locals {
		pairs[s] = offsetPairs(lc)
	}
	s := &Snapshot{
		src: g, kind: g.Kind(), n: g.NumVertices(),
		ranks: so.Ranks, scheme: so.Scheme, delegateBytes: so.DelegateBytes,
		storage: so.Storage,
		pt:      pt, locals: locals, pairs: pairs,
		resolve: buildResolve(pt),
		deleg:   BuildDelegation(g, so.DelegateBytes),
		orient:  newOrientIndex(g.NumVertices()),
	}
	s.computeSums()
	return s, nil
}

// LoadSnapshot is NewSnapshot over a named dataset from the registry.
func LoadSnapshot(name string, ranks int, scheme part.Scheme, delegateBytes int) (*Snapshot, error) {
	g, err := gen.Load(name)
	if err != nil {
		return nil, err
	}
	return NewSnapshot(g, ranks, scheme, delegateBytes)
}

// Graph returns the snapshot's source graph store.
func (s *Snapshot) Graph() graph.Store { return s.src }

// LocalBytes reports the host bytes the extracted per-rank adjacency
// planes occupy — the quantity the storage budget governs. The recycled
// cache instances and the orientation index are not part of it (see
// Snapshot for their bounds).
func (s *Snapshot) LocalBytes() int64 {
	var b int64
	for _, lc := range s.locals {
		b += lc.AdjMemBytes() + 8*int64(len(lc.Offsets))
	}
	return b
}

// StorageRepr names the representation the per-rank CSRs ended up in.
func (s *Snapshot) StorageRepr() string {
	if len(s.locals) > 0 && s.locals[0].Compressed() {
		return "compressed"
	}
	return "plain"
}

// Ranks returns the pinned rank count p.
func (s *Snapshot) Ranks() int { return s.ranks }

// Scheme returns the pinned partitioning scheme.
func (s *Snapshot) Scheme() part.Scheme { return s.scheme }

// options pins the snapshot-owned fields — the distribution belongs to the
// snapshot, the method/caching/workers/faults to the query — and applies
// the usual defaults.
func (s *Snapshot) options(opt Options) Options {
	opt.Ranks, opt.Scheme, opt.DelegateBytes = s.ranks, s.scheme, s.delegateBytes
	opt.Storage = s.storage
	return opt.withDefaults(s.n)
}

// windows exposes the snapshot's partitions in a fresh communicator,
// reusing the precomputed pair arrays.
func (s *Snapshot) windows(comm *rma.Comm) (wOff, wAdj *rma.Window) {
	return windowsFromPairs(comm, s.locals, s.pairs)
}

// RunCtx executes the fully asynchronous LCC computation (Algorithm 3)
// over the snapshot, under supervision: ctx cancellation unwinds every
// rank at its next checkpoint or barrier and returns an error wrapping
// sched.ErrRunCanceled; a rank panic surfaces as *sched.PanicError; a
// fail-fast crash-stop fault as *fault.CrashError. On any error the
// result is nil — a supervised run yields complete results or none —
// and the snapshot itself is untouched: it holds no model-visible per-run
// state (the caches of a rank that unwound never return to the free list),
// so the caller can simply run again.
func (s *Snapshot) RunCtx(ctx context.Context, opt Options) (*Result, error) {
	opt = s.options(opt)
	n := s.n
	comm := rma.NewCommWorkers(s.ranks, opt.Model, opt.Workers)
	opt.configureCharges(comm)
	wOff, wAdj := s.windows(comm)

	lccOut := make([]float64, n)
	triOut := make([]int64, s.ranks)
	stats := make([]RankStats, s.ranks)

	ranks, err := comm.RunCtx(ctx, func(r *rma.Rank) {
		w := newWorker(r, s.kind, s.pt, s.locals[r.ID()], wOff, wAdj, s.resolve, opt, &s.caches)
		w.deleg, w.orient = s.deleg, s.orient
		// The deferred close repools the scratch and closes the epochs on
		// the cancel/panic unwind path; the explicit close keeps the
		// epoch-close charges ahead of the stats snapshot, as the charge
		// order always had them.
		defer w.close()
		sumT := w.run(lccOut)
		w.close()
		triOut[r.ID()] = sumT
		stats[r.ID()] = w.stats()
		s.caches.recycle(w)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{LCC: lccOut, PerRank: stats, SimTime: rma.MaxClock(ranks),
		DelegatedVertices: s.deleg.Len(), DelegationBytes: s.deleg.Bytes()}
	for _, t := range triOut {
		res.SumT += t
	}
	res.Triangles = TriangleCount(s.kind, res.SumT)
	return res, nil
}

// RunJaccardCtx executes the per-edge Jaccard computation (jaccard.go)
// over the snapshot, under the same supervision contract as RunCtx.
func (s *Snapshot) RunJaccardCtx(ctx context.Context, opt Options) (*JaccardResult, error) {
	opt = s.options(opt)
	comm := rma.NewCommWorkers(s.ranks, opt.Model, opt.Workers)
	opt.configureCharges(comm)
	wOff, wAdj := s.windows(comm)

	scores := make([]float64, s.src.NumArcs())
	stats := make([]RankStats, s.ranks)

	// Global arc index of each rank's first arc: offsets of preceding
	// ranks' partitions sum up because Extract preserves CSR order. The
	// last offset is the partition's arc count in any representation.
	base := make([]uint64, s.ranks+1)
	for r, lc := range s.locals {
		base[r+1] = base[r] + lc.Offsets[lc.NumLocal()]
	}

	ranks, err := comm.RunCtx(ctx, func(r *rma.Rank) {
		w := newWorker(r, s.kind, s.pt, s.locals[r.ID()], wOff, wAdj, s.resolve, opt, &s.caches)
		w.deleg = s.deleg
		defer w.close()
		arc := base[r.ID()]
		// forEachEdge visits arcs in exactly CSR order, so `arc`
		// advances in lockstep.
		w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
			adjI := w.adjOwned(li)
			inter, ops := w.its.Count(opt.Method, adjI, adjJ)
			union := len(adjI) + len(adjJ) - inter
			if union > 0 {
				scores[arc] = float64(inter) / float64(union)
			}
			arc++
			w.r.Compute(ops + 6)
		})
		w.close()
		stats[r.ID()] = w.stats()
		s.caches.recycle(w)
	})
	if err != nil {
		return nil, err
	}

	return &JaccardResult{
		Scores:  scores,
		SimTime: rma.MaxClock(ranks),
		PerRank: stats,
	}, nil
}
