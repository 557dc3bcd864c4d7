package repro

import (
	"repro/internal/clampi"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/serve"
)

// --- graphs ---------------------------------------------------------------

// Graph is an immutable CSR graph (sorted adjacency lists, no self-loops or
// multi-edges).
type Graph = graph.Graph

// V is the vertex id type.
type V = graph.V

// Edge is a directed arc (an unordered pair for undirected builders).
type Edge = graph.Edge

// Kind distinguishes directed from undirected graphs.
type Kind = graph.Kind

// Graph kinds.
const (
	Undirected = graph.Undirected
	Directed   = graph.Directed
)

// GraphStore is the adjacency-access contract both graph representations
// satisfy — plain in-RAM CSR (*Graph) and varint/delta-compressed CSR — so
// every engine entrypoint accepts either. The simulated model plane never
// observes which one a run used: results and SimTime are bit-identical
// across representations (DESIGN.md §9).
type GraphStore = graph.Store

// BuildGraph constructs a simple CSR graph from an edge list, dropping
// self-loops and collapsing multi-edges (§II-A).
func BuildGraph(kind Kind, n int, edges []Edge) (*Graph, error) {
	return graph.Build(kind, n, edges)
}

// CompressGraph re-encodes g's adjacency as the varint/delta compressed
// CSR (DESIGN.md §9) — same answers through GraphStore, ~3× smaller.
func CompressGraph(g *Graph) GraphStore { return graph.CompressGraph(g) }

// Prepare applies the paper's §II-B preprocessing: iterated degree<2
// removal plus a seeded random relabeling.
func Prepare(g *Graph, seed uint64) *Graph { return gen.Prepare(g, seed) }

// --- datasets and generators ----------------------------------------------

// MustLoadDataset generates (memoized) and prepares a registered dataset
// (Table II stand-ins; DESIGN.md §1), panicking on an unknown name.
func MustLoadDataset(name string) *Graph { return gen.MustLoad(name) }

// SetGraphCacheDir enables the dataset disk cache: generated graphs
// persist to dir in the binary container format on first load and load
// from it afterwards. The LCC_GRAPH_CACHE environment variable sets the
// same default.
func SetGraphCacheDir(dir string) { gen.SetCacheDir(dir) }

// RMAT generates an R-MAT graph with the paper's default skew parameters
// (a=0.57, b=c=0.19, d=0.05; §IV-A). The result is raw: apply Prepare
// before distributing it.
func RMAT(scale, edgeFactor int, kind Kind, seed uint64) *Graph {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, kind, seed))
}

// ErdosRenyi generates a uniform random graph (the Fig. 4 baseline).
func ErdosRenyi(n, m int, kind Kind, seed uint64) *Graph {
	return gen.ErdosRenyi(n, m, kind, seed)
}

// WattsStrogatz generates the small-world graph of the paper's reference
// [9] (the origin of the LCC metric): a ring lattice of degree k with each
// edge rewired with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// RingLatticeLCC returns the closed-form clustering coefficient of the
// beta=0 Watts–Strogatz lattice, 3(k−2)/(4(k−1)).
func RingLatticeLCC(k int) float64 { return gen.RingLatticeLCC(k) }

// --- intersection kernels ---------------------------------------------------

// Method selects the adjacency-intersection kernel (§II-C).
type Method = intersect.Method

// Intersection methods: sorted set intersection (Algorithm 2), binary
// search (Algorithm 1) and the Eq. (3) hybrid.
const (
	MethodSSI    = intersect.MethodSSI
	MethodBinary = intersect.MethodBinary
	MethodHybrid = intersect.MethodHybrid
)

// --- distribution -----------------------------------------------------------

// Scheme selects the 1D vertex distribution (§III-A).
type Scheme = part.Scheme

// Distribution schemes: the paper's contiguous Block default, the cyclic
// alternative it cites, and the arc-balanced contiguous variant that
// addresses the §IV-D-2 load imbalance.
const (
	Block     = part.Block
	Cyclic    = part.Cyclic
	BlockArcs = part.BlockArcs
)

// --- the machine model ------------------------------------------------------

// CostModel calibrates the simulated machine (network α/β, DRAM, cache and
// compute charges). See rma.DefaultCostModel for the Cray-Aries-like
// defaults the evaluation uses.
type CostModel = rma.CostModel

// FaultSpec describes a fault schedule for the RMA substrate: a crash-stop
// of one rank at its n-th remote operation, failing the run fast or
// recovered by restart and re-execution from the rank's last barrier, and a
// wedge that parks one rank until the run is canceled. Set
// LCCOptions.Faults to run under it; a recovered crash leaves computed
// results bit-identical to the fault-free run — it costs simulated time,
// never correctness — and SimTime is reproducible for a given (spec,
// config) at any worker count.
type FaultSpec = fault.Spec

// ParseFaultSpec parses a command-line fault specification of the form
// "crashrecover=R:OP", "crash=R:OP" or "wedge=R:OP", comma-separated (see
// fault.ParseSpec for the grammar). An empty string yields (nil, nil):
// faults off.
func ParseFaultSpec(s string) (*FaultSpec, error) { return fault.ParseSpec(s) }

// --- LCC / TC engines -------------------------------------------------------

// LCCOptions configure the asynchronous distributed engine (Algorithm 3 +
// §III-B caching). The Workers field bounds how many simulated ranks
// execute concurrently on host goroutines (0 = GOMAXPROCS); every engine
// result is bit-identical at any worker count, so Workers is purely a
// host-performance knob.
type LCCOptions = lcc.Options

// StorageMode selects the host-side representation of the per-rank local
// CSRs (LCCOptions.Storage): plain arrays, varint/delta-compressed, or
// automatic under a snapshot's budget (lcc.SnapshotOptions.MemBudgetBytes;
// a one-shot run has none, so auto is plain). Purely a host memory/speed
// trade — every simulated bit is identical across modes (DESIGN.md §9).
type StorageMode = lcc.StorageMode

// Storage modes.
const (
	StorageAuto       = lcc.StorageAuto
	StoragePlain      = lcc.StoragePlain
	StorageCompressed = lcc.StorageCompressed
)

// LCCResult is the output of a distributed run: per-vertex LCC scores,
// the global triangle count, the simulated job time, and per-rank
// communication/caching statistics.
type LCCResult = lcc.Result

// CacheStats reports the hit/miss/eviction counters of one CLaMPI cache
// instance (§II-F), as carried in each rank's statistics.
type CacheStats = clampi.Stats

// RunLCC executes the paper's fully asynchronous distributed TC+LCC
// computation on a simulated p-rank machine. g may be either GraphStore —
// plain or compressed; results are identical.
func RunLCC(g GraphStore, opt LCCOptions) (*LCCResult, error) { return lcc.Run(g, opt) }

// SharedResult is the output of the single-node computation.
type SharedResult = lcc.SharedResult

// SharedLCC computes TC+LCC on a single node (§IV-C baseline and ground
// truth).
func SharedLCC(g *Graph, method Method) *SharedResult { return lcc.SharedLCC(g, method) }

// ScorePolicy selects the C_adj eviction score: CLaMPI's LRU+positional
// default or the paper's degree scores (§III-B-2).
type ScorePolicy = lcc.ScorePolicy

// Eviction score policies.
const (
	ScoreLRU    = lcc.ScoreLRU
	ScoreDegree = lcc.ScoreDegree
)

// RunLCCPush computes LCC with the push-mode engine (future work ii: the
// push side of the push–pull dichotomy): each triangle is discovered
// exactly once and its two non-discovering corners receive their
// contribution through batched one-sided accumulates. Results are
// bit-identical to RunLCC on undirected graphs; directed graphs are
// rejected.
func RunLCCPush(g GraphStore, opt LCCOptions) (*LCCResult, error) {
	return lcc.RunPush(g, opt)
}

// JaccardResult is the output of a distributed Jaccard-similarity run.
type JaccardResult = lcc.JaccardResult

// RunJaccard computes per-edge Jaccard similarity on the same asynchronous
// RMA substrate as RunLCC — the paper's future-work direction (ii).
func RunJaccard(g GraphStore, opt LCCOptions) (*JaccardResult, error) {
	return lcc.RunJaccard(g, opt)
}

// --- cancellation and supervised serving ------------------------------------

// ErrRunCanceled is wrapped by every error a canceled engine run returns:
// the simulated ranks observed the context at a checkpoint or barrier and
// unwound cleanly. errors.Is(err, ErrRunCanceled) identifies it; when a
// deadline caused the cancellation, context.DeadlineExceeded is also in
// the chain.
var ErrRunCanceled = sched.ErrRunCanceled

// PanicError is what an engine-goroutine panic becomes: a typed run error
// carrying the simulated rank, the panic value, and the goroutine stack.
// The panicking run fails; the process does not.
type PanicError = sched.PanicError

// The supervised serving layer (internal/serve, cmd/lccd): a Supervisor
// manages named instances, each owning a Snapshot behind a five-state
// lifecycle (loading, ready, unhealthy, parked, exited — DESIGN.md §8),
// enforces a global memory budget by LRU parking, and — given a manifest
// store — persists instance configs so a daemon restart (even kill -9)
// recovers the fleet. Runs carry deadlines, cancellation, panic isolation,
// admission control and bounded priority queueing. The facade names what
// examples/quickstart uses; everything else is internal/serve's.
type (
	// ServeConfig describes what an instance loads and how it admits runs.
	ServeConfig = serve.Config
	// ServeQuery selects the engine and per-run options of one query.
	ServeQuery = serve.Query
	// ServeSupervisor is the named-instance registry behind cmd/lccd.
	ServeSupervisor = serve.Supervisor
	// ServeManifestStore persists instance manifests in a state directory.
	ServeManifestStore = serve.ManifestStore
)

// NewServeSupervisor creates an empty instance registry.
func NewServeSupervisor() *ServeSupervisor { return serve.NewSupervisor() }

// NewServeManifestStore opens (creating if needed) a manifest state
// directory; hand it to ServeSupervisor.SetManifestStore for durability.
func NewServeManifestStore(dir string) (*ServeManifestStore, error) {
	return serve.NewManifestStore(dir)
}
