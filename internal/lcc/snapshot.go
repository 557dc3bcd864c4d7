package lcc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/clampi"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/sched"
)

// Snapshot is the per-graph half of a distributed run: the partition, the
// extracted per-rank CSRs (what both windows serve; checksummed with the
// packed resolve table, see Verify) and the resolve table. All of it is
// immutable once built and — unlike the communicator, the caches and the
// clocks — independent of any particular query, so one snapshot is shared by
// any number of sequential or concurrent runs over the same graph (the
// serving layer keeps exactly one per loaded instance).
//
// Every engine runs on one: the one-shot entry points (Run, RunJaccard,
// RunPush) build a snapshot and launch on it, so a run through a kept
// snapshot is bit-identical to the corresponding lcc.Run.
//
// The three mutable things a snapshot owns are host memory, invisible to the
// model. One is the free lists of cache instances and first-touch maps
// (caches) that cached runs recycle instead of rebuilding their hash tables,
// heaps and slabs per rank per query. clampi.Cache.Reset and
// clampi.OneSize.Reset hand each instance out in the just-constructed state,
// and a map comes back clear, so the lists carry no model-visible
// per-run state and a run's results do not depend on what ran before it.
// They hold at most Workers × concurrent cached runs of each (a rank body
// holds at most one of each, and internal/sched runs at most Workers bodies
// of a run at once). Another is the orientation index (orient, see
// orientIndex): per-vertex constants of the graph — where adj(v) crosses v,
// and a dense set over a long, dense hub's upper list — that RunCtx's ranks
// fill on first fetch and every later edge and run reads instead of
// searching. It grows to at most 4 bytes per vertex plus, per dense hub, 80
// bytes and twelve per spanned 64-id word. The last is the residency answers
// (residency, see resident.go): which of each rank's caches hold every list
// it can fetch, 4 bytes per rank for the cache configurations a run last
// asked for, filled by its first run. None is counted by LocalBytes; all are
// freed with the snapshot.
type Snapshot struct {
	src     graph.Store
	kind    graph.Kind
	n       int
	ranks   int
	scheme  part.Scheme
	storage StorageMode

	pt      *part.Partition
	locals  []*part.LocalCSR
	resolve []uint64

	// sums / resolveSum are the build-time CRC-32C of the resident tables
	// (integrity.go); Verify re-checks them for the snapshot's lifetime.
	sums       []rankSums
	resolveSum uint32

	caches    cachePool
	orient    *orientIndex
	residency residency

	// ahead says the resident tables are past what a core's private cache
	// holds (stageMinBytes), so runs read ahead of the model (stageAhead).
	ahead bool
}

// cachePool is a snapshot's free lists of cache instances and first-touch
// maps (Snapshot.caches). C_offsets models and C_adj instances recycle on
// lists of their own, each with backing arrays of its role's shape. A pooled
// C_adj instance is unbound (clampi.Cache.Unbind), so it keeps no world of a
// finished run alive; a model holds none.
type cachePool struct {
	mu    sync.Mutex
	off   []*clampi.OneSize
	adj   []*clampi.Cache
	touch []*touchMap
}

// pop takes the last element of list, or nil when it is empty; the caller
// holds p.mu.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// takeOff returns a C_offsets model of window w in a world of ranks ranks
// under cfg, recycled when the pool has one and constructed otherwise.
func (p *cachePool) takeOff(w *rma.Window, ranks int, cfg clampi.Config) *clampi.OneSize {
	p.mu.Lock()
	m := pop(&p.off)
	p.mu.Unlock()
	if m == nil {
		return clampi.NewOneSize(w, ranks, cfg)
	}
	return m.Reset(w, ranks, cfg)
}

// takeAdj binds a C_adj instance to rank r and window w under cfg, recycled
// when the pool has one and constructed otherwise.
func (p *cachePool) takeAdj(r *rma.Rank, w *rma.Window, cfg clampi.Config) *clampi.Cache {
	p.mu.Lock()
	c := pop(&p.adj)
	p.mu.Unlock()
	if c == nil {
		return clampi.New(r, w, cfg)
	}
	return c.Reset(r, w, cfg)
}

// takeTouch returns clear first-touch and crowded maps of n bits.
func (p *cachePool) takeTouch(n int) *touchMap {
	p.mu.Lock()
	tm := pop(&p.touch)
	p.mu.Unlock()
	if tm == nil {
		words := (n + 63) / 64
		tm = &touchMap{off: make([]uint64, words), adj: make([]uint64, words),
			offCrowd: make([]uint64, words), adjCrowd: make([]uint64, words)}
	}
	return tm
}

// recycle hands w's caches and first-touch maps to the pool. Only a rank body
// that ran to completion may call it, after its last use of them (w.stats):
// those of a rank that unwound — cancellation, panic, stall-cancel,
// crash-stop — may hold a miss in flight and are left to the garbage
// collector.
func (p *cachePool) recycle(w *worker) {
	if w.touch != nil {
		clear(w.touch.off)
		clear(w.touch.adj)
		clear(w.touch.offCrowd)
		clear(w.touch.adjCrowd)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.touch != nil {
		p.touch = append(p.touch, w.touch)
	}
	if w.cOff != nil {
		p.off = append(p.off, w.cOff)
	}
	if w.cAdj != nil {
		w.cAdj.Unbind()
		p.adj = append(p.adj, w.cAdj)
	}
	w.cOff, w.cAdj, w.touch, w.offRes, w.adjRes = nil, nil, nil, nil, nil
}

// SnapshotOptions are the per-graph half of Options: everything the
// snapshot pins for all queries executed on it.
type SnapshotOptions struct {
	// Ranks is the number of computing nodes p; 0 selects 1.
	Ranks int
	// Scheme is the 1D vertex distribution; Block is the paper's default.
	Scheme part.Scheme
	// Storage selects the host-side representation of the per-rank
	// adjacency plane; see StorageMode. Host-side only — results are
	// bit-identical across modes.
	Storage StorageMode
	// MemBudgetBytes caps the host bytes the extracted per-rank CSRs may
	// occupy under StorageAuto: when the plain layout would overshoot it,
	// the adjacency is stored varint/delta-compressed instead. 0 means no
	// budget (plain). Ignored outside StorageAuto.
	MemBudgetBytes int64
}

// NewSnapshotOpts partitions g over so.Ranks ranks and precomputes every
// per-graph table of the engine setup, extracting the per-rank CSRs in
// so.Storage. The snapshot pins the distribution: queries executed on it
// inherit its rank count and scheme regardless of what their Options say.
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
	compressed := compressLocals(g, so.Ranks, so.Storage, so.MemBudgetBytes)
	s := &Snapshot{
		src: g, kind: g.Kind(), n: g.NumVertices(),
		ranks: so.Ranks, scheme: so.Scheme, storage: so.Storage,
		pt:      pt,
		locals:  make([]*part.LocalCSR, so.Ranks),
		resolve: make([]uint64, g.NumVertices()),
		sums:    make([]rankSums, so.Ranks),
		orient:  newOrientIndex(g.NumVertices()),
	}
	// A rank's tables are built and summed by one core while they are still
	// in its cache, the ranks on every core at once.
	sched.Fan(so.Ranks, g.NumVertices()+g.NumArcs(), func(r int) {
		s.locals[r] = part.Extract(g, pt, r, compressed)
		resolveRank(s.resolve, pt, r)
		s.sums[r] = sumsOf(s.locals[r])
	})
	s.resolveSum = checksum(s.resolve)
	s.ahead = s.LocalBytes() >= stageMinBytes
	return s, nil
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

// options pins the snapshot-owned fields — the distribution belongs to the
// snapshot, the method/caching/workers/faults to the query — and applies
// the usual defaults.
func (s *Snapshot) options(opt Options) Options {
	opt.Ranks, opt.Scheme, opt.Storage = s.ranks, s.scheme, s.storage
	return opt.withDefaults()
}

// windows exposes the snapshot's partitions in a fresh communicator as the
// two typed, read-only RMA windows every engine reads, both aliasing the
// partitions' own CSR storage: the offsets arrays served as (start,end)
// records — one 16-byte get fetches both bounds of an adjacency list (Fig. 3
// reads offsets[li] and offsets[li+1] in one operation) — and the adjacency
// arrays as native []graph.V. Compressed locals get a CompressedVertices
// adjacency window: same name, same byte geometry, same charges and cache
// keys — only the host-side backing store differs. Rank r exposes
// partition r.
func (s *Snapshot) windows(comm *rma.Comm) (wOff, wAdj *rma.Window) {
	offs := make([][]uint64, s.ranks)
	for r := range offs {
		offs[r] = s.locals[r].Offsets
	}
	wOff = comm.CreateOffsetsWindow("offsets", offs)
	if s.locals[0].Compressed() {
		comps := make([]*graph.CompressedAdj, s.ranks)
		for r := range comps {
			comps[r] = s.locals[r].Comp
		}
		return wOff, comm.CreateCompressedVertexWindow("adjacencies", comps)
	}
	adjs := make([][]graph.V, s.ranks)
	for r := range adjs {
		adjs[r] = s.locals[r].Adj
	}
	return wOff, comm.CreateVertexWindow("adjacencies", adjs)
}

// launch is the one body every engine's run goes through: a fresh world of
// one rank per snapshot partition — the communicator, the diagnostic charge
// plane, the two graph windows, then whatever prepare adds for the engine
// (the push engine's counter window and fence barrier) — and per rank a
// worker, body (which returns the rank's Σ t_i and scores into lccOut, the
// result's LCC), the rank's stats and its caches back to the pool.
// Supervision is rma.Comm.RunCtx's: ctx cancellation unwinds every rank at
// its next checkpoint or barrier and returns an error wrapping
// sched.ErrRunCanceled; a rank panic surfaces as *sched.PanicError; a
// fail-fast crash-stop fault as *fault.CrashError. On any error the result
// is nil — a supervised run yields complete results or none — and the
// snapshot itself is untouched: it holds no model-visible per-run state (the
// caches of a rank that unwound never return to the free list), so the
// caller can simply run again. An AdjScorePolicy outside ScoreLRU and
// ScoreDegree, or a negative cache capacity, is an error before anything
// starts.
func (s *Snapshot) launch(ctx context.Context, opt Options, lccOut []float64,
	prepare func(*rma.Comm), body func(*worker) int64) (*Result, error) {
	if opt.AdjScorePolicy > ScoreDegree {
		return nil, fmt.Errorf("lcc: unknown C_adj score policy %d", opt.AdjScorePolicy)
	}
	if opt.OffsetsCacheBytes < 0 || opt.AdjCacheBytes < 0 {
		return nil, fmt.Errorf("lcc: cache capacities %d and %d bytes: neither may be negative",
			opt.OffsetsCacheBytes, opt.AdjCacheBytes)
	}
	opt = s.options(opt)
	comm := rma.NewCommWorkers(s.ranks, opt.Model, opt.Workers)
	opt.configureCharges(comm)
	wOff, wAdj := s.windows(comm)
	if prepare != nil {
		prepare(comm)
	}
	triOut := make([]int64, s.ranks)
	stats := make([]RankStats, s.ranks)

	ranks, err := comm.RunCtx(ctx, func(r *rma.Rank) {
		w := newWorker(r, s, wOff, wAdj, opt)
		// The deferred close repools the scratch and closes the epochs on
		// the cancel/panic unwind path; the explicit close keeps the
		// epoch-close charges ahead of the stats snapshot, as the charge
		// order always had them.
		defer w.close()
		triOut[r.ID()] = body(w)
		w.close()
		stats[r.ID()] = w.stats()
		s.caches.recycle(w)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{LCC: lccOut, PerRank: stats, SimTime: rma.MaxClock(ranks)}
	for _, t := range triOut {
		res.SumT += t
	}
	res.Triangles = TriangleCount(s.kind, res.SumT)
	return res, nil
}

// RunCtx executes the fully asynchronous LCC computation (Algorithm 3)
// over the snapshot, under launch's supervision contract.
func (s *Snapshot) RunCtx(ctx context.Context, opt Options) (*Result, error) {
	lccOut := make([]float64, s.n)
	return s.launch(ctx, opt, lccOut, nil, func(w *worker) int64 { return w.run(lccOut) })
}

// RunJaccardCtx executes the per-edge Jaccard computation (jaccard.go)
// over the snapshot, under the same supervision contract as RunCtx.
func (s *Snapshot) RunJaccardCtx(ctx context.Context, opt Options) (*JaccardResult, error) {
	scores := make([]float64, s.src.NumArcs())
	// Global arc index of every vertex's first arc. A rank's arcs are
	// contiguous in the graph's CSR order only under the block schemes, so
	// scores are placed per owned vertex, not per rank.
	first := make([]int, s.n+1)
	for v := 0; v < s.n; v++ {
		first[v+1] = first[v] + s.src.OutDegree(graph.V(v))
	}
	res, err := s.launch(ctx, opt, nil, nil, func(w *worker) int64 {
		// forEachEdge visits an owned vertex's arcs consecutively and in
		// CSR order, so arc advances in lockstep within one.
		arc, of := 0, -1
		w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
			if li != of {
				arc, of = first[w.pt.VertexAt(w.slot, li)], li
			}
			adjI := w.adjOwned(li)
			inter, ops := w.its.Count(w.opt.Method, adjI, adjJ)
			union := len(adjI) + len(adjJ) - inter
			if union > 0 {
				scores[arc] = float64(inter) / float64(union)
			}
			arc++
			w.r.Compute(ops + 6)
		})
		return 0
	})
	if err != nil {
		return nil, err
	}
	return &JaccardResult{Scores: scores, SimTime: res.SimTime, PerRank: res.PerRank}, nil
}
