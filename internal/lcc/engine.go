package lcc

import (
	"context"
	"fmt"
	"math"

	"repro/internal/clampi"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/sched"
)

// Options configure one distributed run (Algorithm 3 + §III-B caching).
type Options struct {
	// Ranks is the number of computing nodes p.
	Ranks int
	// Workers bounds how many simulated ranks execute concurrently on
	// host goroutines (internal/sched). 0 selects GOMAXPROCS. Every
	// result — SimTime float bits, triangle counts, LCC scores, cache
	// hit counts — is bit-identical at any worker count; Workers only
	// trades host wall-clock for cores (DESIGN.md §4).
	Workers int
	// Scheme is the 1D vertex distribution; Block is the paper's default.
	Scheme part.Scheme
	// Model is the machine calibration; zero value selects the default
	// Cray-Aries-like model.
	Model rma.CostModel
	// Method selects the intersection kernel. The zero value is MethodSSI;
	// callers that want the paper's choice set MethodHybrid (§III-C: the
	// hybrid always beat pure SSI or binary search).
	Method intersect.Method
	// DoubleBuffer overlaps the communication of the next edge with the
	// processing of the current one (§III-A). The A2 ablation turns it
	// off.
	DoubleBuffer bool

	// Caching enables the two CLaMPI caches, C_offsets and C_adj.
	Caching bool
	// OffsetsCacheBytes / AdjCacheBytes are the per-rank buffer
	// capacities. The Fig. 9/10 configuration reserves 16 GiB per node
	// split as 0.8·|V| bytes for C_offsets and the rest for C_adj. The
	// hash tables are sized from them by the §III-B-1 rule (cacheConfigs).
	// A cache of 0 bytes is no cache: under Caching, a capacity of 0 turns
	// that cache off and its accesses are plain gets, so both at 0 is the
	// uncached run. A negative capacity is an error.
	OffsetsCacheBytes int
	AdjCacheBytes     int
	// AdjScorePolicy selects the C_adj eviction score; see ScorePolicy.
	// ScoreDegree is the paper's application-defined score (§III-B-2).
	AdjScorePolicy ScorePolicy

	// OnRemoteRead, when set, observes every remote adjacency fetch
	// (before caching) as (rank, target vertex). Rank r only ever
	// reports with its own id, so per-rank storage needs no locking.
	OnRemoteRead func(rank int, target graph.V)

	// ChargeObserver, when set, observes every modeled charge of the run
	// at its fold point, in canonical per-rank order (rma.ChargeObserver).
	// Diagnostic surface: the charge-digest tests record whole runs with
	// it (DESIGN.md §6). Observers run on rank goroutines.
	ChargeObserver rma.ChargeObserver

	// Faults installs a deterministic fault schedule on the world
	// (internal/fault): seeded transient RMA failures, latency spikes,
	// stall windows and CLaMPI unavailability, recovered by the
	// substrate's retry/backoff machinery and the engine's cache
	// degradation ladder. Results are bit-identical to the fault-free
	// run — faults cost simulated time, never correctness. nil = off.
	Faults *fault.Spec

	// Progress, when set, receives out-of-band run-progress ticks
	// (sched.Progress): one per masked checkpoint poll per rank, one per
	// barrier round close. The serving layer's watchdog samples it to
	// detect wedged runs. Host-side diagnostics only — arming it cannot
	// perturb a simulated bit. nil = off.
	Progress *sched.Progress

	// Storage selects the host-side representation of the per-rank
	// adjacency plane (see StorageMode). Purely host-side: the windows'
	// byte images, charge tape and cache keys are pinned by the model
	// plane, so every simulated result is bit-identical across modes
	// (DESIGN.md §9); only host memory and host wall-clock differ.
	Storage StorageMode
}

// StorageMode selects how the engine stores the per-rank adjacency lists
// on the host. The simulated machine is oblivious to the choice: windows
// keep their plain-image byte geometry regardless (rma.CompressedVertices).
type StorageMode uint8

const (
	// StorageAuto picks the cheapest representation that fits
	// SnapshotOptions.MemBudgetBytes — plain when no budget is set.
	StorageAuto StorageMode = iota
	// StoragePlain forces plain CSR locals (aliased window views,
	// zero decode cost).
	StoragePlain
	// StorageCompressed forces varint/delta-compressed locals: ~2-3×
	// less host memory for the adjacency plane, one bounded decode per
	// fetched list.
	StorageCompressed
)

func (m StorageMode) String() string {
	switch m {
	case StorageAuto:
		return "auto"
	case StoragePlain:
		return "plain"
	case StorageCompressed:
		return "compressed"
	default:
		return "unknown"
	}
}

// ParseStorageMode is the inverse of StorageMode.String. The empty string
// selects StorageAuto.
func ParseStorageMode(s string) (StorageMode, error) {
	switch s {
	case "", "auto":
		return StorageAuto, nil
	case "plain":
		return StoragePlain, nil
	case "compressed":
		return StorageCompressed, nil
	default:
		return StorageAuto, fmt.Errorf("lcc: unknown storage mode %q", s)
	}
}

// compressLocals reports whether g's CSRs over ranks ranks are stored
// compressed under the storage mode. Auto mode compresses when a budget is
// set and the plain footprint (Snapshot.LocalBytes: 4 bytes an arc, 8 bytes
// an offset, one more offset per rank) would overshoot it.
func compressLocals(g graph.Store, ranks int, storage StorageMode, budget int64) bool {
	switch storage {
	case StoragePlain:
		return false
	case StorageCompressed:
		return true
	}
	return budget > 0 && 4*int64(g.NumArcs())+8*int64(g.NumVertices()+ranks) > budget
}

// configureCharges applies the diagnostic charge-plane options to a world.
func (o Options) configureCharges(comm *rma.Comm) {
	if o.ChargeObserver != nil {
		comm.SetChargeObserver(o.ChargeObserver)
	}
	if o.Faults != nil {
		comm.SetFaults(o.Faults)
	}
	if o.Progress != nil {
		comm.SetProgress(o.Progress)
	}
}

// ScorePolicy selects how C_adj entries are scored for eviction.
type ScorePolicy uint8

const (
	// ScoreLRU keeps CLaMPI's default: least-recently-used weighted by
	// the positional (anti-fragmentation) score.
	ScoreLRU ScorePolicy = iota
	// ScoreDegree is the paper's §III-B-2 extension: the remote vertex's
	// out-degree, known after the offsets get, predicts reuse
	// (Observation 3.1).
	ScoreDegree
)

func (s ScorePolicy) String() string {
	switch s {
	case ScoreLRU:
		return "lru+positional"
	case ScoreDegree:
		return "degree"
	default:
		return "unknown"
	}
}

func (o Options) withDefaults() Options {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.Model == (rma.CostModel{}) {
		o.Model = rma.DefaultCostModel()
	}
	return o
}

// PaperCacheBytes returns the Fig. 9/10 per-rank cache budget scaled to a
// graph of n vertices: C_offsets holds 40% of the vertices as 16-byte
// (start,end) records (the paper's 0.8·|V| allocation), and C_adj gets an
// ample 64 MiB (the paper's "rest of 16 GiB", which exceeds the small-scale
// graphs).
func PaperCacheBytes(n int) (offBytes, adjBytes int) {
	return 16 * (2 * n / 5), 64 << 20
}

// cacheConfigs sizes a rank's two CLaMPI instances for a graph of n vertices
// by the §III-B-1 rule: C_offsets gets a bucket per 16-byte offsets record its
// buffer holds, C_adj the power-law-discounted count of adjBuckets.
func cacheConfigs(n int, opt Options) (off, adj clampi.Config) {
	return clampi.Config{Capacity: opt.OffsetsCacheBytes, Buckets: clampOne(opt.OffsetsCacheBytes / 16)},
		clampi.Config{Capacity: opt.AdjCacheBytes, Buckets: adjBuckets(n, opt.AdjCacheBytes)}
}

func clampOne(x int) int {
	if x < 1 {
		return 1
	}
	return x
}

// adjBuckets applies the §III-B-1 sizing rule for C_adj: with a power-law
// degree distribution, a cache holding a fraction f of the graph stores
// about n·f^α entries; the paper found α = 2 a good approximation.
func adjBuckets(n, capacity int) int {
	// Approximate the graph's adjacency bytes by 4 bytes per arc; the
	// caller knows the real value, but the rule only needs the order of
	// magnitude. We conservatively use n·32 (edge factor 8), computed in
	// float throughout: the integer product n*32 would overflow for very
	// large n, and the rule only ever needs the ratio.
	f := float64(capacity) / (float64(n) * 32)
	if f > 1 {
		f = 1
	}
	b := int(float64(n) * f * f)
	return clampOne(b)
}

// RankStats reports one rank's activity after a run.
type RankStats struct {
	Rank           int
	SimTime        float64    // rank finish time, ns
	Ledger         rma.Ledger // where SimTime went, per charge kind
	RemoteReads    int64      // adjacency fetches that crossed ranks
	LocalReads     int64      // adjacency fetches served locally
	DelegatedReads int64      // always 0; kept only because bench/probe.go:257 reads it
	RMA            rma.Counters
	OffsetsCache   clampi.Stats // zero value when caching is off
	AdjCache       clampi.Stats
}

// Result is the output of a distributed run.
type Result struct {
	LCC       []float64 // global, indexed by vertex id
	Triangles int64     // global triangle count (see TriangleCount)
	SumT      int64     // Σ t_i, the raw closed-triplet total
	SimTime   float64   // slowest rank's finish time, ns (the paper's metric)
	PerRank   []RankStats
}

// RemoteReadFraction returns remote/(remote+local) adjacency fetches — the
// quantity the paper tracks as p grows (66%→98% for R-MAT S21; §IV-D-2).
func (res *Result) RemoteReadFraction() float64 {
	var rem, loc int64
	for _, s := range res.PerRank {
		rem += s.RemoteReads
		loc += s.LocalReads
	}
	if rem+loc == 0 {
		return 0
	}
	return float64(rem) / float64(rem+loc)
}

// HitRate returns the global C_adj hit rate over all ranks — the headline
// caching metric of Figs. 7/8. It is 0 for non-cached runs.
func (res *Result) HitRate() float64 {
	var hits, misses int64
	for _, s := range res.PerRank {
		hits += s.AdjCache.Hits
		misses += s.AdjCache.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// CommFraction returns the communication share of the slowest rank's time.
func (res *Result) CommFraction() float64 {
	if res.SimTime == 0 {
		return 0
	}
	worst := 0.0
	for _, s := range res.PerRank {
		if s.SimTime == res.SimTime {
			worst = s.Ledger.Comm() / s.SimTime
		}
	}
	return worst
}

// Run executes the fully asynchronous distributed LCC computation
// (Algorithm 3). The graph is 1D-partitioned; each rank exposes its local
// CSR in two RMA windows (offsets served as (start,end) records, adjacencies
// as uint32 ids), opens passive-target access epochs, and walks its owned
// vertices reading remote adjacency lists with paired one-sided gets —
// optionally through CLaMPI caches. No rank ever synchronizes with another
// during the computation.
func Run(g graph.Store, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, opt)
}

// RunCtx is Run under supervision: the setup is snapshotted (NewSnapshotOpts)
// and the rank bodies execute under rma.Comm.RunCtx, so ctx cancellation
// unwinds the run at its checkpoints (error wraps sched.ErrRunCanceled), a
// rank panic surfaces as *sched.PanicError instead of killing the process,
// and a fail-fast crash-stop fault returns its *fault.CrashError. Callers
// that keep the graph loaded across queries should build the Snapshot once
// and call its RunCtx directly; this entry point rebuilds it per run.
func RunCtx(ctx context.Context, g graph.Store, opt Options) (*Result, error) {
	snap, err := opt.snapshot(g)
	if err != nil {
		return nil, err
	}
	return snap.RunCtx(ctx, opt)
}

// snapshot builds the one-shot snapshot behind Run, RunJaccard and RunPush:
// g partitioned over Ranks slots, one per rank. The rank-count default and
// checks live here and in NewSnapshotOpts, so every entry point rejects the
// same inputs.
func (o Options) snapshot(g graph.Store) (*Snapshot, error) {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	return NewSnapshotOpts(g, SnapshotOptions{
		Ranks: o.Ranks, Scheme: o.Scheme, Storage: o.Storage,
	})
}

// resolveLiBits is the local-index width of a packed resolve word:
// owner slot in the high bits, local index in the low 40 (far beyond any
// vertex count a partition here can hold).
const resolveLiBits = 40

// resolveRank writes the packed resolve words of rank's vertices into tbl:
// the per-vertex fetch coordinates every engine resolves on every edge, the
// owning slot (pt.Owner) fused with the local index (pt.LocalIndex) in one
// word, so the per-edge cost is a single flat array load instead of two
// function calls and a division. The rank's vertices lie at a fixed stride,
// so filling them takes no division either. The table is immutable once
// built and shared read-only by all ranks of a run; the slot field is the
// target rank of the fetch.
func resolveRank(tbl []uint64, pt *part.Partition, rank int) {
	v, step := pt.VertexAt(rank, 0), pt.Stride()
	word := uint64(rank) << resolveLiBits
	for li := 0; li < pt.Size(rank); li++ {
		tbl[v] = word | uint64(li)
		v += step
	}
}

// worker is the per-rank execution state.
type worker struct {
	r    *rma.Rank
	kind graph.Kind
	pt   *part.Partition
	lc   *part.LocalCSR
	wOff *rma.Window
	wAdj *rma.Window
	opt  Options

	// offOn and adjOn say which caches the rank has: under Caching, those of
	// positive capacity. cOff and cAdj are their CLaMPI instances: C_offsets,
	// CLaMPI's exact one-size model, and C_adj. A cache the snapshot found
	// resident has none: its Resident decides (offRes, adjRes).
	offOn, adjOn bool
	cOff         *clampi.OneSize
	cAdj         *clampi.Cache

	// orient is the snapshot's orientation index (orient.go).
	orient *orientIndex

	// its is the rank's pooled intersection scratch: the fast host
	// kernels (branch-free merge, stamp-set bitmap, galloping replay)
	// that report the exact Algorithm 1/2 modeled charge (DESIGN.md §5).
	// Acquired by newWorker, released by close.
	its *intersect.Scratch

	// resolve is the snapshot's table mapping a vertex to its packed
	// (owner slot, local index) fetch coordinate; slot is the rank's own
	// slot in that table (fetches to it are local). Rank r holds slot r, so
	// an owner slot is the target rank of its gets.
	resolve []uint64
	slot    int

	// locals are the snapshot's per-slot CSRs, the memory behind both
	// windows; stageAhead reads them directly when the snapshot says it pays
	// (Snapshot.ahead), and sink is where everything it loads ends up.
	locals []*part.LocalCSR
	ahead  bool
	sink   uint64

	remoteReads int64
	localReads  int64

	// edgeFilter, when set, restricts forEachEdge to the (li, vj) pairs
	// it accepts. The push engine uses it to walk only the upper wedge
	// vj > vi so each triangle is discovered exactly once.
	edgeFilter func(li int, vj graph.V) bool

	// Lookahead pipeline state (forEachEdge): the staged batch (ring[
	// ringHead:ringLen] is what is left of it) and the two fetch slots live
	// on the worker so the steady-state loop allocates nothing and captures
	// nothing.
	ring              [fetchLookahead]pipeEdge
	ringHead, ringLen int
	scanLi, scanJ     int
	fetchA, fetchB    fetch

	// Compressed-locals decode state. compLoc is resolved once at
	// construction so the per-edge paths branch on a flag, not an
	// interface. Each consumer of an owned list keeps its own reuse
	// buffer, so decoded runs stay valid across the pipeline stages that
	// interleave them; all of it is dormant for plain locals, where the
	// accessors return aliased CSR views. The memo indices amortize the
	// decode to once per owned vertex — both the ring scan and the visit
	// side walk local indices in CSR order.
	compLoc   bool      // lc stores adjacency varint/delta-compressed
	scanDec   []graph.V // refillRing's staged owned list
	scanDecLi int
	ownDec    []graph.V // visit-side adjI (run/runPush/jaccard)
	ownDecLi  int

	// A caching rank's pooled maps and Residents (touch, resident.go): the
	// residency laws the check reads, which decide a resident cache's
	// accesses with its first-touch and crowded maps; the first-touch maps
	// also say which of a CLaMPI instance's misses are compulsory.
	offRes, adjRes *clampi.Resident
	touch          *touchMap
}

// scanAdj returns the owned list the ring scan is staging, decoding it at
// most once per owned vertex (scanLi advances monotonically, and a refill
// that resumes mid-list hits the memo).
func (w *worker) scanAdj() []graph.V {
	if !w.compLoc {
		return w.lc.AdjOf(w.scanLi)
	}
	if w.scanDecLi != w.scanLi {
		w.scanDec = w.lc.AdjInto(w.scanLi, w.scanDec)
		w.scanDecLi = w.scanLi
	}
	return w.scanDec
}

// adjOwned returns owned vertex li's list for the visit side. forEachEdge
// delivers a vertex's edges consecutively, so the memo amortizes the
// compressed decode to once per owned vertex — the same asymptotics as the
// plain-CSR alias it replaces.
func (w *worker) adjOwned(li int) []graph.V {
	if !w.compLoc {
		return w.lc.AdjOf(li)
	}
	if w.ownDecLi != li {
		// The previous owned list may be the scratch's stamped pivot, and
		// it is about to be overwritten in place; drop the stamp while its
		// content is still intact (Scratch's identity-memo contract).
		w.its.Unstamp()
		w.ownDec = w.lc.AdjInto(li, w.ownDec)
		w.ownDecLi = li
	}
	return w.ownDec
}

// pipeEdge is one staged (owned vertex, neighbour) pair of the lookahead
// batch, with what the per-edge path consumes of the staging: the
// neighbour's packed resolve word (start) and, for a remote neighbour of a
// caching rank, its two accesses' verdicts (decide).
type pipeEdge struct {
	li       int32
	vj       graph.V
	rv       uint64
	off, adj clampi.Verdict
}

// refillRing stages the next batch of the CSR walk, until the ring is full
// or the walk is exhausted. Pure host work: the filter is evaluated at
// staging time, ahead of the model (see fetchLookahead). Called on an empty
// ring only.
func (w *worker) refillRing() {
	w.ringHead, w.ringLen = 0, 0
	nLocal := w.lc.NumLocal()
	for w.scanLi < nLocal {
		adj := w.scanAdj()
		for w.scanJ < len(adj) {
			vj := adj[w.scanJ]
			w.scanJ++
			if w.edgeFilter != nil && !w.edgeFilter(w.scanLi, vj) {
				continue
			}
			w.ring[w.ringLen] = pipeEdge{li: int32(w.scanLi), vj: vj, rv: w.resolve[vj]}
			w.ringLen++
			if w.ringLen == fetchLookahead {
				return
			}
		}
		w.scanLi++
		w.scanJ = 0
	}
}

// stageMinBytes is the resident size (Snapshot.LocalBytes) from which a
// snapshot's runs read ahead (Snapshot.ahead): below it the offsets, the
// lists and the cache lanes stay in a core's private cache between their uses,
// there is no miss to overlap and stageAhead is pure overhead (+4.6 % host
// time on fb-sim's 0.7 MB; the benchmark's R-MAT and uniform graphs hold 3.7
// and 4.5 MB).
const stageMinBytes = 2 << 20

// stageAhead loads, for every edge of the batch just staged, the host memory
// the per-edge path will read for it first — level by level, every loop up
// to fetchLookahead loads whose addresses do not depend on one another, so
// that their cache misses overlap where the per-edge path takes the same
// misses one dependent load after another:
//
//  1. the neighbour's orientation word (refillRing staged its resolve word);
//  2. its (start, end) record in its owner's offsets;
//  3. the line of its list the visit cuts at — start + upper offset, the
//     middle of the list while the word is unfilled or names a hub entry.
//
// Nothing loaded here reaches the model: the values are summed into sink and
// never read, and every get, wait, charge and kernel reads its data again at
// its canonical position. Every index is checked, not trusted: the
// orientation word may be damaged (orientIndex), and a corrupt resolve word
// or record is for start and the window to fault on, as before.
func (w *worker) stageAhead(batch []pipeEdge) {
	var word [fetchLookahead]uint32
	for i := range batch {
		if vj := int(batch[i].vj); vj < len(w.orient.word) {
			word[i] = w.orient.word[vj].Load()
		}
	}
	var pair [fetchLookahead][2]uint64
	for i := range batch {
		if start, end, ok := w.record(unpackResolve(batch[i].rv)); ok {
			pair[i] = [2]uint64{start, end}
		}
	}
	sink := w.sink
	for i := range batch {
		slot, _ := unpackResolve(batch[i].rv)
		start, end := pair[i][0], pair[i][1]
		if start >= end {
			continue // an empty list, or a record level 2 would not read
		}
		if list, at := w.locals[slot].Adj, stageIndex(word[i], start, end); at < uint64(len(list)) {
			sink += uint64(list[at]) // compressed locals have no plain list to read
		}
	}
	w.sink = sink
}

// stageIndex is where in the non-empty list [start, end) stageAhead reads:
// the upper offset a plain orientation word carries, clamped to the list's
// last id, and the middle for an unfilled word or a hub's.
func stageIndex(word uint32, start, end uint64) uint64 {
	if word == 0 || word&hubFlag != 0 {
		return start + (end-start)/2
	}
	return min(start+uint64(word-1), end-1)
}

// unpackResolve splits a packed resolve word (resolveRank).
func unpackResolve(rv uint64) (slot, li int) {
	return int(rv >> resolveLiBits), int(rv & (1<<resolveLiBits - 1))
}

// record returns list li's (start, end) record in slot's offsets — the 16
// bytes a get of the offsets window at 16·li reads — and whether the
// snapshot has that slot and record.
func (w *worker) record(slot, li int) (start, end uint64, ok bool) {
	if slot >= len(w.locals) || li+1 >= len(w.locals[slot].Offsets) {
		return 0, 0, false
	}
	off := w.locals[slot].Offsets
	return off[li], off[li+1], true
}

// popEdge takes the next staged edge. When the ring runs dry it is refilled
// in a batch, decided (decide) by a caching rank and, on a snapshot large
// enough (Snapshot.ahead), read ahead for (stageAhead).
func (w *worker) popEdge() (pipeEdge, bool) {
	if w.ringHead == w.ringLen {
		w.refillRing()
		if w.ringLen == 0 {
			return pipeEdge{}, false
		}
		if w.offOn || w.adjOn {
			w.decide(w.ring[:w.ringLen])
		}
		if w.ahead {
			w.stageAhead(w.ring[:w.ringLen])
		}
	}
	i := w.ringHead
	w.ringHead++
	return w.ring[i], true
}

// decide is a caching rank's decision pass over the batch just staged: the
// cache transitions of every remote edge's two accesses, in edge order, in
// one tight pass ahead of the walk that charges them. It reads the owners'
// records from the slots' offsets (the offsets window's memory), derives all the
// keys, preloads what their lookups read first (clampi.Cache.Preload) so
// those misses overlap, then decides each access and leaves the verdicts in
// the edges. No transition reads the clock (DESIGN.md §6): each cache's
// operation order and the rank's fault-draw order are the walk's. An edge
// the pass cannot key — its record or list outside the owner's regions — ends
// the pass; the walk decides the rest itself, faulting where it always did.
// A resident cache takes neither keys nor preloads: its verdicts come from
// its first-touch map.
func (w *worker) decide(batch []pipeEdge) {
	var at [fetchLookahead]int
	var pair [fetchLookahead][2]uint64
	n := 0
	for i := range batch {
		slot, li := unpackResolve(batch[i].rv)
		if slot == w.slot {
			continue
		}
		start, end, ok := w.record(slot, li)
		if !ok {
			break
		}
		at[n], pair[n] = i, [2]uint64{start, end}
		n++
	}
	var off, adj [fetchLookahead]clampi.Key
	for j := range n {
		slot, li := unpackResolve(batch[at[j]].rv)
		start, end := pair[j][0], pair[j][1]
		if start > end || end > uint64(w.wAdj.SizeAt(slot))/4 {
			n = j
			break
		}
		if w.cOff != nil {
			off[j] = w.cOff.KeyOf(slot, 16*li, 16)
		}
		if w.cAdj != nil {
			adj[j] = w.cAdj.KeyOf(slot, 4*int(start), 4*int(end-start))
		}
	}
	if w.cOff != nil {
		w.sink += w.cOff.Preload(off[:n])
	}
	if w.cAdj != nil {
		w.sink += w.cAdj.Preload(adj[:n])
	}
	for j := range n {
		e := &batch[at[j]]
		slot, li := unpackResolve(e.rv)
		if w.offOn {
			e.off = w.decideOff(&off[j], e.vj, slot, li)
		}
		if w.adjOn {
			e.adj = w.decideAdj(&adj[j], e.vj, slot, li, pair[j][0], pair[j][1])
		}
	}
}

// decideOff decides the C_offsets access of vertex vj, local index li of
// owner. A resident cache (no cOff) is decided by its Resident, from vj's
// first-touch and crowded bits. Otherwise it draws the rank's CacheFault —
// a fault degrades the cache — and decides under k, or, for an access the
// pass left undecided (k nil), under KeyOf's key, which panics on a
// coordinate outside the window geometry as the get always did, and as the
// Resident does. The first-touch bit is set only by an access that reaches
// the cache, so a degraded access leaves the next one compulsory. Only a
// rank with the cache (offOn) calls it.
func (w *worker) decideOff(k *clampi.Key, vj graph.V, owner, li int) clampi.Verdict {
	if w.cOff == nil {
		return w.offRes.Decide(owner, 16*li, 16, math.NaN(), firstTouch(w.touch.off, vj), isSet(w.touch.offCrowd, vj))
	}
	if w.r.CacheFault() {
		w.cOff.Degrade()
		return clampi.Degraded
	}
	if k == nil {
		key := w.cOff.KeyOf(owner, 16*li, 16)
		k = &key
	}
	return w.cOff.Decide(*k, firstTouch(w.touch.off, vj))
}

// decideAdj is decideOff for the C_adj access of vj's list [start, end) in
// slot's adjacency region. Under ScoreDegree the access carries the list's
// degree as its score (§III-B-2), otherwise none (NaN); a score matters on
// insertion, so a hit ignores it. An empty list's key is its slot and start
// only, which every empty list at that start shares, so their accesses share
// one first-touch bit (adjTouchVertex).
func (w *worker) decideAdj(k *clampi.Key, vj graph.V, slot, li int, start, end uint64) clampi.Verdict {
	off, size := 4*int(start), 4*int(end-start)
	if start == end {
		vj = w.adjTouchVertex(vj, slot, li, start)
	}
	score := math.NaN()
	if w.opt.AdjScorePolicy == ScoreDegree {
		score = float64(size / 4)
	}
	if w.cAdj == nil {
		return w.adjRes.Decide(slot, off, size, score, firstTouch(w.touch.adj, vj), isSet(w.touch.adjCrowd, vj))
	}
	if w.r.CacheFault() {
		w.cAdj.Degrade()
		return clampi.Degraded
	}
	if k == nil {
		key := w.cAdj.KeyOf(slot, off, size)
		k = &key
	}
	return w.cAdj.Decide(*k, score, firstTouch(w.touch.adj, vj))
}

// newWorker builds rank r's execution state over snapshot s: r holds the
// partition of slot r. A rank with a cache takes its maps and Residents from
// the snapshot's pool; a cache the snapshot finds resident for the rank
// (residentCaches; never under cache faults) is decided by its Resident,
// with its crowded vertices marked, and the others are CLaMPI instances —
// C_offsets its one-size model — from the pool, recycled or constructed.
func newWorker(r *rma.Rank, s *Snapshot, wOff, wAdj *rma.Window, opt Options) *worker {
	slot := r.ID()
	w := &worker{r: r, kind: s.kind, pt: s.pt, lc: s.locals[slot], wOff: wOff, wAdj: wAdj, opt: opt,
		orient: s.orient, resolve: s.resolve, slot: slot, locals: s.locals, ahead: s.ahead}
	w.compLoc = w.lc.Compressed()
	w.scanDecLi, w.ownDecLi = -1, -1
	w.its = intersect.GetScratch()
	w.its.EnsureUniverse(s.n)
	r.LockAll(wOff)
	r.LockAll(wAdj)
	w.offOn = opt.Caching && opt.OffsetsCacheBytes > 0
	w.adjOn = opt.Caching && opt.AdjCacheBytes > 0
	if !w.offOn && !w.adjOn {
		return w
	}
	offCfg, adjCfg := cacheConfigs(s.n, opt)
	w.touch = s.caches.takeTouch(s.n)
	if w.offOn {
		w.offRes = w.touch.offRes.Reset(offCfg, wOff, r.NumRanks())
	}
	if w.adjOn {
		w.adjRes = w.touch.adjRes.Reset(adjCfg, wAdj, r.NumRanks())
	}
	in := &rankAnswer{}
	if opt.Faults == nil || opt.Faults.CacheFailPct <= 0 {
		in = s.residentCaches(w, offCfg, adjCfg)
	}
	setBits(w.touch.offCrowd, in.offCrowd)
	setBits(w.touch.adjCrowd, in.adjCrowd)
	if w.offOn && !in.off {
		w.cOff = s.caches.takeOff(wOff, r.NumRanks(), offCfg)
	}
	if w.adjOn && !in.adj {
		w.cAdj = s.caches.takeAdj(r, wAdj, adjCfg)
	}
	return w
}

// fetch is the two-get remote read of one adjacency list, pipelined in up
// to three stages (issue offsets get → issue adjacency get → resolve).
//
// Each get has one caller-owned request value (rma.GetInto), so the per-edge
// path touches no request pool, and every Wait and view is a direct call on a
// concrete type.
type fetch struct {
	owner int
	local bool
	list  []graph.V // a local fetch's list, resolved by start

	// adjacency-window coordinates of the second get (set by mid)
	adjOff, adjSize int

	// offV/adjV are the two accesses' verdicts (decide; Undecided without
	// caches), which the stages charge: a hit reads the window's own view
	// (pair, for the offsets), a miss or a degraded access the direct get
	// offQ/adjQ, one caller-owned request per get. vj and li name the
	// fetched vertex for an access the stages decide themselves.
	offV, adjV clampi.Verdict
	vj         graph.V
	li         int
	pair       []uint64
	offQ, adjQ rma.Request

	// dec is the slot's decode buffer for a local fetch, or a cache hit, of
	// compressed adjacency (a remote get decodes into its request's own
	// storage).
	// Per-slot ownership makes the pipeline safe — the next decode into
	// this slot happens only after the current edge's visit — and reuse
	// keeps the steady state allocation-free.
	dec []graph.V
}

// start charges e's first access and issues its get (or resolves a local
// list immediately).
func (w *worker) start(f *fetch, e pipeEdge) {
	vj := e.vj
	slot, li := unpackResolve(e.rv)
	if slot == w.slot {
		// A list of the rank's own slot is read from its CSR: a local DRAM
		// read of the plain-image bytes (the model never sees the host
		// representation).
		f.local = true
		w.localReads++
		if w.compLoc {
			f.dec = w.lc.AdjInto(li, f.dec)
			f.list = f.dec
		} else {
			f.list = w.lc.AdjOf(li)
		}
		w.r.ChargeLocalRead(4 * len(f.list))
		return
	}
	f.local = false
	f.owner = slot
	w.remoteReads++
	if w.opt.OnRemoteRead != nil {
		w.opt.OnRemoteRead(w.r.ID(), vj)
	}
	f.offV, f.adjV, f.vj, f.li = e.off, e.adj, vj, li
	if f.offV == clampi.Undecided && w.offOn {
		f.offV = w.decideOff(nil, vj, f.owner, li)
	}
	// A miss charges CLaMPI's overhead ahead of the get it issues; no cache,
	// or one the fault schedule degraded for this access, leaves the direct
	// get to serve the same window bytes uncached.
	switch f.offV {
	case clampi.Hit:
		w.r.ChargeCacheHit(16)
		f.pair = w.wOff.ViewUint64s(f.owner, 16*li, 16)
		return
	case clampi.Miss:
		w.r.ChargeCacheMissOverhead()
	}
	w.r.GetInto(&f.offQ, w.wOff, f.owner, 16*li, 16)
}

// mid completes the offsets access and charges and issues the adjacency
// one.
func (w *worker) mid(f *fetch) {
	if f.local {
		return
	}
	pair := f.pair
	if f.offV != clampi.Hit {
		f.offQ.Wait()
		if f.offV == clampi.Miss {
			w.r.ChargeCacheManage(16)
		}
		pair = f.offQ.Uint64s()
	}
	start, end := pair[0], pair[1]
	f.adjOff, f.adjSize = int(start)*4, int(end-start)*4
	if f.adjV == clampi.Undecided && w.adjOn {
		f.adjV = w.decideAdj(nil, f.vj, f.owner, f.li, start, end)
	}
	switch f.adjV {
	case clampi.Hit:
		w.r.ChargeCacheHit(f.adjSize)
		return
	case clampi.Miss:
		w.r.ChargeCacheMissOverhead()
	}
	w.r.GetInto(&f.adjQ, w.wAdj, f.owner, f.adjOff, f.adjSize)
}

// finish completes the adjacency get and resolves the list: an aliased view
// of the adjacency window — no decode, no copy — or, over compressed
// storage, the run decoded into the request's own buffer. Local fetches
// arrive already resolved.
func (w *worker) finish(f *fetch) []graph.V {
	if f.local {
		return f.list
	}
	if f.adjV == clampi.Hit {
		if w.compLoc {
			f.dec = w.wAdj.ReadVertices(f.owner, f.adjOff, f.adjSize, f.dec)
			return f.dec
		}
		return w.wAdj.ViewVertices(f.owner, f.adjOff, f.adjSize)
	}
	f.adjQ.Wait()
	if f.adjV == clampi.Miss {
		w.r.ChargeCacheManage(f.adjSize)
	}
	return f.adjQ.Vertices()
}

// fetchLookahead is the depth k of the host-side software pipeline in
// forEachEdge: edge enumeration (CSR scan, filter evaluation, ring
// staging), a caching rank's decision pass (decide) and the read-ahead
// (stageAhead) run up to k edges ahead of the model in tight refill
// batches. k is the decision pass's window: on a 2-vCPU Xeon, 64 ran
// cached-rmat queries 5 % faster than 16 (108 of 150 alternating queries),
// and 128 measured no better on cached-rmat, cached-uniform or pull-rmat.
// Only host work moves — every charge append, get issue and wait still
// fires at its canonical lookahead-one position, and each cache's
// transitions keep their order — which is what the charge-tape contract
// (DESIGN.md §6) requires for bit-identical SimTime.
const fetchLookahead = 64

// forEachEdge streams the rank's (owned vertex, neighbour, neighbour's
// adjacency list) triples through visit, running the paper's fetch
// pipeline: two dependent one-sided gets per remote neighbour, with the
// next edge's communication overlapping the current edge's visit when
// double buffering is on (§III-A). The adjacency slice passed to visit is
// only valid for the duration of the call. Both TC/LCC (Algorithm 3) and
// the Jaccard extension run on top of this visitor.
//
// Host schedule: edges are enumerated through a fetchLookahead-deep ring
// refilled in batches, so the per-edge steady state touches no enumeration
// state beyond a ring pop. The charge tape keeps this host pipelining
// invisible to the model (see fetchLookahead).
func (w *worker) forEachEdge(visit func(li int, vj graph.V, adjJ []graph.V)) {
	w.ringHead, w.ringLen = 0, 0
	w.scanLi, w.scanJ = 0, 0

	// Two fetch slots flipped by pointer: each stage resets the request it
	// issues through, so no per-edge struct zeroing is needed.
	cur, nxt := &w.fetchA, &w.fetchB

	e, ok := w.popEdge()
	if ok {
		w.start(cur, e)
	}
	for ok {
		// Complete the offsets get and fire the dependent adjacency
		// get for the current edge, then wait for the data. Both remote
		// latencies are exposed here, as in the paper: §IV-D observes
		// that communication dominates and overlap cannot hide it.
		w.mid(cur)
		list := w.finish(cur)

		// Double buffering (§III-A): issue the next edge's first get
		// now, so its transfer overlaps the visit below — the
		// communication of edge i+1 overlaps the computation of edge
		// i, exactly one edge of lookahead in the model regardless of
		// the host pipeline depth.
		var en pipeEdge
		var okn bool
		if w.opt.DoubleBuffer {
			en, okn = w.popEdge()
			if okn {
				w.start(nxt, en)
			}
		}

		visit(int(e.li), e.vj, list)

		if w.opt.DoubleBuffer {
			e, ok = en, okn
			cur, nxt = nxt, cur
		} else {
			e, ok = w.popEdge()
			if ok {
				w.start(cur, e)
			}
		}
	}
}

// close ends the access epochs (a local operation in passive mode) and
// returns the intersection scratch to its pool. It is idempotent: the
// engine bodies close explicitly before reading stats (the implied flush
// charges time, which must land ahead of the snapshot) and also defer a
// close, so a rank unwinding on cancellation or panic still repools its
// scratch and leaves the windows' epochs closed. The close path performs
// no checkpoint polls, so it cannot re-panic during an unwind.
func (w *worker) close() {
	if w.its == nil {
		return
	}
	w.r.UnlockAll(w.wOff)
	w.r.UnlockAll(w.wAdj)
	intersect.PutScratch(w.its)
	w.its = nil
}

// run executes Algorithm 3 for the rank's owned vertices, writing LCC
// scores into the global output slice (each vertex is scored by exactly one
// rank) and returning Σ t_i over them.
func (w *worker) run(lccOut []float64) int64 {
	var sumT int64
	method := w.opt.Method
	nLocal := w.lc.NumLocal()
	perVertexT := make([]int64, nLocal)

	w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
		adjI := w.adjOwned(li)
		var setJ *intersect.DenseSet
		if w.kind == graph.Undirected {
			adjJ, setJ = w.orient.upper(vj, adjJ)
		}
		cnt, ops := w.its.CountIndexed(method, adjI, adjJ, setJ)
		// A small per-edge constant covers loop and bookkeeping costs.
		w.r.Compute(ops + 4)
		perVertexT[li] += int64(cnt)
	})

	for li := range nLocal {
		v := w.pt.VertexAt(w.slot, li)
		d := w.lc.DegreeOf(li)
		lccOut[v] = Score(w.kind, perVertexT[li], d)
		sumT += perVertexT[li]
		w.r.Compute(2)
	}
	return sumT
}

func (w *worker) stats() RankStats {
	s := RankStats{
		Rank:        w.r.ID(),
		SimTime:     w.r.Now(),
		Ledger:      w.r.Ledger(),
		RemoteReads: w.remoteReads,
		LocalReads:  w.localReads,
		RMA:         w.r.Counters(),
	}
	// A cache the rank does not have reports zero statistics.
	if w.cOff != nil {
		s.OffsetsCache = w.cOff.Stats()
	} else if w.offRes != nil {
		s.OffsetsCache = w.offRes.Stats()
	}
	if w.cAdj != nil {
		s.AdjCache = w.cAdj.Stats()
	} else if w.adjRes != nil {
		s.AdjCache = w.adjRes.Stats()
	}
	return s
}

// CacheMissRates aggregates the C_offsets and C_adj miss rates over ranks.
func (res *Result) CacheMissRates() (offRate, adjRate float64) {
	var oh, om, ah, am int64
	for _, s := range res.PerRank {
		oh += s.OffsetsCache.Hits
		om += s.OffsetsCache.Misses
		ah += s.AdjCache.Hits
		am += s.AdjCache.Misses
	}
	if oh+om > 0 {
		offRate = float64(om) / float64(oh+om)
	}
	if ah+am > 0 {
		adjRate = float64(am) / float64(ah+am)
	}
	return
}

// AggregateRMA rolls the per-rank RMA counters into one global record via
// Counters.Merge — the single aggregation path end-of-run reporting uses,
// so no counter field is dropped by an ad-hoc sum.
func (res *Result) AggregateRMA() rma.Counters {
	var agg rma.Counters
	for _, s := range res.PerRank {
		agg.Merge(s.RMA)
	}
	return agg
}

// AvgRemoteReadTime returns the mean simulated cost of one remote
// adjacency fetch (both gets plus cache service time), the metric of
// Fig. 8. NaN-free: returns 0 when no remote reads occurred.
func (res *Result) AvgRemoteReadTime() float64 {
	var reads int64
	cost := res.AggregateRMA().GetCost
	for _, s := range res.PerRank {
		reads += s.RemoteReads
		cost += s.Ledger[rma.ChargeCacheHit] + s.Ledger[rma.ChargeCacheMiss] + s.Ledger[rma.ChargeCacheManage]
	}
	if reads == 0 {
		return 0
	}
	return cost / float64(reads)
}

// MaxCommTime returns the largest per-rank communication time, a proxy for
// the communication-bound critical path used by the Fig. 7 sweep.
func (res *Result) MaxCommTime() float64 {
	var t float64
	for _, s := range res.PerRank {
		t = math.Max(t, s.Ledger.Comm())
	}
	return t
}
