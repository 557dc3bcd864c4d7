package repro

import (
	"context"
	"io"

	"repro/internal/clampi"
	"repro/internal/disttc"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/spmat"
	"repro/internal/tric"
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

// GraphStore is the adjacency-access contract every graph representation
// satisfies — plain in-RAM CSR (*Graph), varint/delta-compressed CSR, and
// file-backed CSR — so every engine entrypoint accepts any of them. The
// simulated model plane never observes which one a run used: results and
// SimTime are bit-identical across representations (DESIGN.md §9).
type GraphStore = graph.Store

// BuildGraph constructs a simple CSR graph from an edge list, dropping
// self-loops and collapsing multi-edges (§II-A).
func BuildGraph(kind Kind, n int, edges []Edge) (*Graph, error) {
	return graph.Build(kind, n, edges)
}

// ReadEdgeList parses a SNAP-style "src dst" text stream.
func ReadEdgeList(r io.Reader, kind Kind) (*Graph, error) {
	return graph.ReadEdgeList(r, kind)
}

// ReadBinaryGraph reads the binary CSR container written by
// WriteBinaryGraph or cmd/graphgen, fully materialized as a plain *Graph.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// ReadBinaryGraphStore reads the binary CSR container preserving its
// on-disk representation: raw files load as plain *Graph, varint files as
// the compressed CSR — at roughly a third of the plain footprint.
func ReadBinaryGraphStore(r io.Reader) (GraphStore, error) { return graph.ReadBinaryStore(r) }

// WriteBinaryGraph writes the versioned, per-section-checksummed binary
// CSR container format.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// WriteBinaryGraphStore writes any representation to the binary container:
// a compressed store writes its varint/delta stream verbatim, everything
// else the raw plain image.
func WriteBinaryGraphStore(w io.Writer, st GraphStore) error {
	return graph.WriteBinaryStore(w, st)
}

// OpenBinaryGraph maps a binary container file as a file-backed store:
// adjacency reads are served from the mapped (or pread) file with only the
// offset index resident, so graphs larger than RAM open in seconds.
func OpenBinaryGraph(path string) (GraphStore, error) { return graph.OpenBinary(path) }

// CompressGraph re-encodes g's adjacency as the varint/delta compressed
// CSR (DESIGN.md §9) — same answers through GraphStore, ~3× smaller.
func CompressGraph(g *Graph) GraphStore { return graph.CompressGraph(g) }

// GraphCorruptError is the typed failure of every binary-container read: a
// bad magic/version, an implausible header, or a section whose CRC does not
// match. Corrupt files fail loud; they never load garbage.
type GraphCorruptError = graph.CorruptError

// Prepare applies the paper's §II-B preprocessing: iterated degree<2
// removal plus a seeded random relabeling.
func Prepare(g *Graph, seed uint64) *Graph { return gen.Prepare(g, seed) }

// --- datasets and generators ----------------------------------------------

// DatasetNames lists the registered evaluation datasets (Table II
// stand-ins; see DESIGN.md §1 for the mapping to the paper's graphs).
func DatasetNames() []string { return gen.Names() }

// LoadDataset generates (memoized) and prepares a registered dataset.
func LoadDataset(name string) (*Graph, error) { return gen.Load(name) }

// MustLoadDataset is LoadDataset for names known at compile time.
func MustLoadDataset(name string) *Graph { return gen.MustLoad(name) }

// LoadDatasetStore loads a dataset as the cheapest representation that
// fits a resident-memory budget: plain when it fits, then compressed, then
// file-backed straight from the disk cache (budget ≤ 0: unconstrained,
// plain). With the disk cache enabled (SetGraphCacheDir or
// LCC_GRAPH_CACHE) large graphs load from their binary file instead of
// regenerating.
func LoadDatasetStore(name string, budget int64) (GraphStore, error) {
	return gen.LoadStore(name, budget)
}

// ScaleDatasetNames lists the scale-series datasets (~100× the golden
// suite's edge count; cmd/scalebench's subjects). They load like any
// dataset but are excluded from DatasetNames so sweeps never pick them up.
func ScaleDatasetNames() []string { return gen.ScaleNames() }

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

// BarabasiAlbert generates a preferential-attachment power-law graph.
func BarabasiAlbert(n, m int, kind Kind, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, m, kind, seed)
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

// Kronecker generates a stochastic Kronecker graph from a 2x2 initiator
// [[a,b],[c,d]] raised to the given scale (R-MAT's exact counterpart).
func Kronecker(scale int, a, b, c, d float64, kind Kind, seed uint64) *Graph {
	return gen.Kronecker(scale, a, b, c, d, kind, seed)
}

// ReadMatrixMarket parses a MatrixMarket coordinate file (the SuiteSparse
// exchange format): symmetric matrices become undirected graphs, general
// ones directed.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graph.ReadMatrixMarket(r) }

// WriteMatrixMarket writes g as a MatrixMarket coordinate pattern file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return graph.WriteMatrixMarket(w, g) }

// --- intersection kernels ---------------------------------------------------

// Method selects the adjacency-intersection kernel (§II-C).
type Method = intersect.Method

// Intersection methods: sorted set intersection (Algorithm 2), binary
// search (Algorithm 1), the Eq. (3) hybrid, and the H-INDEX-style hash
// intersection surveyed in §V-A.
const (
	MethodSSI    = intersect.MethodSSI
	MethodBinary = intersect.MethodBinary
	MethodHybrid = intersect.MethodHybrid
	MethodHash   = intersect.MethodHash
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

// DefaultCostModel returns the evaluation's calibration.
func DefaultCostModel() CostModel { return rma.DefaultCostModel() }

// NoiseSpec describes deterministic per-rank execution noise (proportional
// jitter plus periodic OS detours). Set CostModel.Noise to run any engine
// under identical, reproducible noise; results are unaffected, only
// simulated times change.
type NoiseSpec = rma.NoiseSpec

// FaultSpec describes a deterministic, seeded fault schedule for the RMA
// and exchange substrates: transient Get/Put/Accumulate failures recovered
// by retry with capped exponential backoff, per-op latency spikes, rank
// stall windows, dropped exchange messages recovered by retransmission,
// and CLaMPI cache unavailability degraded to direct RMA. Set any engine's
// Options.Faults to run under it; computed results are bit-identical to
// the fault-free run — faults cost simulated time, never correctness — and
// SimTime is reproducible for a given (spec, config) at any worker count.
type FaultSpec = fault.Spec

// ParseFaultSpec parses a command-line fault specification of the form
// "seed=N,get=P,put=P,acc=P,spike=P:NS,stall=N:NS,drop=P,cache=P" (see
// fault.ParseSpec for the full grammar; "chaos" selects a ready-made
// mixed-fault preset). An empty string yields (nil, nil): faults off.
func ParseFaultSpec(s string) (*FaultSpec, error) { return fault.ParseSpec(s) }

// ChaosFaultSpec returns the mixed-fault preset used by the chaos CI lane:
// low-rate transient failures on every RMA class, latency spikes, periodic
// stalls, dropped messages and rare cache faults, all keyed on seed.
func ChaosFaultSpec(seed uint64) FaultSpec { return fault.ChaosSpec(seed) }

// --- LCC / TC engines -------------------------------------------------------

// LCCOptions configure the asynchronous distributed engine (Algorithm 3 +
// §III-B caching). The Workers field bounds how many simulated ranks
// execute concurrently on host goroutines (0 = GOMAXPROCS); every engine
// result is bit-identical at any worker count, so Workers is purely a
// host-performance knob. TriCOptions, DistTCOptions and LCC2DOptions
// carry the same field.
type LCCOptions = lcc.Options

// StorageMode selects the host-side representation of the per-rank local
// CSRs (LCCOptions.Storage): plain arrays, varint/delta-compressed, or
// automatic under LCCOptions.MemBudgetBytes. Purely a host memory/speed
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

// RunLCC executes the paper's fully asynchronous distributed TC+LCC
// computation on a simulated p-rank machine. g may be any GraphStore —
// plain, compressed, or file-backed; results are identical.
func RunLCC(g GraphStore, opt LCCOptions) (*LCCResult, error) { return lcc.Run(g, opt) }

// SharedResult is the output of the single-node computation.
type SharedResult = lcc.SharedResult

// SharedLCC computes TC+LCC on a single node (§IV-C baseline and ground
// truth).
func SharedLCC(g *Graph, method Method) *SharedResult { return lcc.SharedLCC(g, method) }

// ForwardLCC computes TC+LCC on a single node with the Schank–Wagner
// forward algorithm over a degree-ordered orientation (§V reference), an
// independent baseline that needs no upper-triangle offsetting.
func ForwardLCC(g *Graph) (*SharedResult, error) { return lcc.ForwardLCC(g) }

// Triangle is one enumerated triangle.
type Triangle = lcc.Triangle

// ListTriangles enumerates every triangle of an undirected graph exactly
// once, in deterministic order.
func ListTriangles(g *Graph) ([]Triangle, error) { return lcc.ListTriangles(g) }

// AlgebraicResult is the output of the masked-SpGEMM triangle computation.
type AlgebraicResult = spmat.TriangleCountResult

// AlgebraicTriangles counts triangles with the algebraic method the paper
// surveys in §V-B: C = L·U ∘ A for undirected graphs, C = A·A ∘ A for
// directed ones. An independent cross-check for the edge-centric engines.
func AlgebraicTriangles(g *Graph) (*AlgebraicResult, error) {
	if g.Kind() == Undirected {
		return spmat.CountLU(g)
	}
	return spmat.CountAAA(g)
}

// ScorePolicy selects the C_adj eviction score: CLaMPI's LRU+positional
// default, the paper's degree scores (§III-B-2), or the future-work
// alternatives (§VI iii).
type ScorePolicy = lcc.ScorePolicy

// Eviction score policies.
const (
	ScoreLRU           = lcc.ScoreLRU
	ScoreDegree        = lcc.ScoreDegree
	ScoreCostBenefit   = lcc.ScoreCostBenefit
	ScoreDegreeRecency = lcc.ScoreDegreeRecency
)

// PushAggregation selects how the push-mode engine ships triangle
// contributions: direct per-corner accumulates or locally combined batches.
type PushAggregation = lcc.PushAggregation

// Push aggregation modes.
const (
	PushDirect  = lcc.PushDirect
	PushBatched = lcc.PushBatched
)

// LCCPushOptions configure a push-mode distributed run (future work ii:
// the push side of the push–pull dichotomy).
type LCCPushOptions = lcc.PushOptions

// RunLCCPush computes LCC with the push-mode engine: each triangle is
// discovered exactly once and its two non-discovering corners receive
// their contribution through one-sided accumulates. Results are
// bit-identical to RunLCC on undirected graphs; directed graphs are
// rejected.
func RunLCCPush(g GraphStore, opt LCCPushOptions) (*LCCResult, error) {
	return lcc.RunPush(g, opt)
}

// LCCReplicatedOptions configure a replicated-groups ("1.5D") run: c graph
// copies over p ranks trade memory for communication (future work i, the
// 2.5D idea of [41] applied to 1D distribution).
type LCCReplicatedOptions = lcc.ReplicatedOptions

// RunLCCReplicated computes LCC over the replicated-groups distribution.
// Results are bit-identical to RunLCC; the remote-read fraction falls as
// the replication factor grows, at a proportional per-rank memory cost.
func RunLCCReplicated(g GraphStore, opt LCCReplicatedOptions) (*LCCResult, error) {
	return lcc.RunReplicated(g, opt)
}

// ReplicaWindowBytes reports the per-rank window memory a replicated run
// would need — the cost side of the memory-for-communication trade.
func ReplicaWindowBytes(g *Graph, ranks, replication int) (int64, error) {
	return lcc.ReplicaWindowBytes(g, ranks, replication)
}

// JaccardResult is the output of a distributed Jaccard-similarity run.
type JaccardResult = lcc.JaccardResult

// RunJaccard computes per-edge Jaccard similarity on the same asynchronous
// RMA substrate as RunLCC — the paper's future-work direction (ii).
func RunJaccard(g GraphStore, opt LCCOptions) (*JaccardResult, error) {
	return lcc.RunJaccard(g, opt)
}

// TriCOptions configure the TriC baseline (§IV-B).
type TriCOptions = tric.Options

// TriCResult is the output of a TriC run.
type TriCResult = tric.Result

// RunTriC executes the TriC query-response baseline over the simulated BSP
// substrate.
func RunTriC(g GraphStore, opt TriCOptions) (*TriCResult, error) { return tric.Run(g, opt) }

// DistTCOptions configure the DistTC baseline (Hoang et al., HPEC'19; §I,
// §V-C).
type DistTCOptions = disttc.Options

// DistTCResult is the output of a DistTC run, including the
// precompute/compute split and the shadow-edge replication factor.
type DistTCResult = disttc.Result

// RunDistTC executes the DistTC shadow-edge baseline: communication-free
// triangle counting after a precomputed ghost-edge exchange.
func RunDistTC(g GraphStore, opt DistTCOptions) (*DistTCResult, error) { return disttc.Run(g, opt) }

// LCC2DOptions configure the asynchronous 2D block engine (future work i,
// §VI). Ranks must be a perfect square.
type LCC2DOptions = grid.Options

// LCC2DResult is the output of a 2D run, including the per-rank traffic
// counters the 1D-vs-2D comparison (ablation A9) reports.
type LCC2DResult = grid.Result

// RunLCC2D executes TC+LCC over a √p×√p block distribution with the same
// fully asynchronous one-sided discipline as RunLCC: each rank pulls the
// 2(√p−1) operand blocks it needs and never synchronizes.
func RunLCC2D(g GraphStore, opt LCC2DOptions) (*LCC2DResult, error) { return grid.Run(g, opt) }

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

// CrashError reports a crash-stop fault (FaultSpec.CrashAtOp) in fail-fast
// mode: the deterministic, typed outcome of the simulated rank's death.
type CrashError = fault.CrashError

// RunLCCCtx is RunLCC under a context: cancellation or deadline expiry
// unwinds the simulated ranks at their next checkpoint and returns an
// error wrapping ErrRunCanceled. RunLCCPushCtx, RunLCCReplicatedCtx and
// RunJaccardCtx do the same for their engines.
func RunLCCCtx(ctx context.Context, g GraphStore, opt LCCOptions) (*LCCResult, error) {
	return lcc.RunCtx(ctx, g, opt)
}

// RunLCCPushCtx is RunLCCPush under a context.
func RunLCCPushCtx(ctx context.Context, g GraphStore, opt LCCPushOptions) (*LCCResult, error) {
	return lcc.RunPushCtx(ctx, g, opt)
}

// RunLCCReplicatedCtx is RunLCCReplicated under a context.
func RunLCCReplicatedCtx(ctx context.Context, g GraphStore, opt LCCReplicatedOptions) (*LCCResult, error) {
	return lcc.RunReplicatedCtx(ctx, g, opt)
}

// RunJaccardCtx is RunJaccard under a context.
func RunJaccardCtx(ctx context.Context, g GraphStore, opt LCCOptions) (*JaccardResult, error) {
	return lcc.RunJaccardCtx(ctx, g, opt)
}

// Snapshot is the immutable per-graph half of the engine setup —
// partition, per-rank CSRs, window layouts, delegation — shared by every
// run against the same distribution. Build once, query many times; each
// run gets fresh communicator, clock and cache state, so results are
// bit-identical to the corresponding one-shot entrypoint.
type Snapshot = lcc.Snapshot

// SnapshotOptions are the per-graph half of LCCOptions a Snapshot pins for
// every query run on it: rank count, distribution scheme, delegation budget
// and the storage mode (with its memory budget) of the per-rank adjacency.
type SnapshotOptions = lcc.SnapshotOptions

// NewSnapshot distributes g once for repeated querying.
func NewSnapshot(g GraphStore, opt SnapshotOptions) (*Snapshot, error) {
	return lcc.NewSnapshotOpts(g, opt)
}

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

// --- caching ----------------------------------------------------------------

// CacheConfig tunes a CLaMPI cache instance (buffer capacity, hash table,
// consistency mode, adaptive resizing; §II-F).
type CacheConfig = clampi.Config

// CacheStats reports hit/miss/eviction counters of a cache instance.
type CacheStats = clampi.Stats

// Cache consistency modes.
const (
	CacheTransparent = clampi.Transparent
	CacheAlways      = clampi.AlwaysCache
	CacheUserDefined = clampi.UserDefined
)
