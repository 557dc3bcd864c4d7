// Package part implements the vertex partitioning schemes of §III-A: the
// paper's 1D block partitioning (an equal, contiguous range of vertices per
// process) and the cyclic 1D distribution it cites as the balanced
// alternative (Lumsdaine et al.), which this repository implements as the
// future-work ablation A3.
package part

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sched"
)

// Scheme selects how vertices map to ranks.
type Scheme uint8

const (
	// Block assigns vertex v to rank v*p/n (contiguous ranges, the
	// paper's default; §III-A). Unlike the paper we do not require p | n:
	// ranges differ by at most one vertex.
	Block Scheme = iota
	// Cyclic assigns vertex v to rank v mod p.
	Cyclic
	// BlockArcs assigns contiguous vertex ranges whose *arc* counts are
	// balanced (equal Σ deg per rank, up to one vertex), addressing the
	// up-to-25% runtime imbalance the paper attributes to plain Block on
	// skewed graphs (§IV-D-2). It keeps Block's contiguity — and thus
	// its cheap ownership arithmetic on the remote path — while fixing
	// the work balance; the A10 ablation quantifies the trade.
	// Partitions with this scheme must be created by Build (the
	// boundaries depend on the degree sequence).
	BlockArcs
)

func (s Scheme) String() string {
	switch s {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case BlockArcs:
		return "block-arcs"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme is the inverse of Scheme.String, accepting the spellings the
// tooling uses ("blockarcs" is an alias for "block-arcs"). The empty
// string selects the paper's default, Block.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "block":
		return Block, nil
	case "cyclic":
		return Cyclic, nil
	case "blockarcs", "block-arcs":
		return BlockArcs, nil
	default:
		return Block, fmt.Errorf("part: unknown scheme %q", s)
	}
}

// Partition maps the vertex set {0..n-1} onto p ranks under a Scheme.
type Partition struct {
	scheme Scheme
	n      int
	p      int
	// bounds holds the range boundaries for BlockArcs: rank r owns
	// [bounds[r], bounds[r+1]). nil for Block and Cyclic.
	bounds []int
}

// New creates a partition of n vertices over p ranks. BlockArcs partitions
// need the degree sequence and must be created with Build.
func New(scheme Scheme, n, p int) (*Partition, error) {
	if p < 1 {
		return nil, fmt.Errorf("part: need at least one rank, got %d", p)
	}
	if n < 0 {
		return nil, fmt.Errorf("part: negative vertex count %d", n)
	}
	if scheme == BlockArcs {
		return nil, fmt.Errorf("part: BlockArcs partitions require the graph; use Build")
	}
	return &Partition{scheme: scheme, n: n, p: p}, nil
}

// newArcBalanced creates a BlockArcs partition of g over p ranks:
// contiguous vertex ranges chosen so every rank holds as close to
// NumArcs/p adjacency entries as contiguity allows (greedy prefix cut at
// the target quota, the standard 1D arc-balancing heuristic).
func newArcBalanced(g graph.Store, p int) (*Partition, error) {
	if p < 1 {
		return nil, fmt.Errorf("part: need at least one rank, got %d", p)
	}
	n := g.NumVertices()
	pt := &Partition{scheme: BlockArcs, n: n, p: p, bounds: make([]int, p+1)}
	total := g.NumArcs()
	v := 0
	carried := 0 // arcs assigned so far
	for r := 0; r < p; r++ {
		pt.bounds[r] = v
		// Quota for ranks r..p-1 splits the remaining arcs evenly; the
		// running recomputation keeps one oversized hub from starving
		// every later rank.
		remainingRanks := p - r
		quota := (total - carried + remainingRanks - 1) / remainingRanks
		acc := 0
		// Leave at least one vertex per remaining rank when possible.
		for v < n-(remainingRanks-1) && (acc == 0 || acc+g.OutDegree(graph.V(v)) <= quota) {
			acc += g.OutDegree(graph.V(v))
			v++
		}
		carried += acc
	}
	pt.bounds[p] = n
	return pt, nil
}

// Build constructs a partition of g's vertices under any scheme,
// dispatching to newArcBalanced when the scheme needs the degree sequence.
// Engines use it so that Options.Scheme can select all three schemes.
func Build(scheme Scheme, g graph.Store, p int) (*Partition, error) {
	if scheme == BlockArcs {
		return newArcBalanced(g, p)
	}
	return New(scheme, g.NumVertices(), p)
}

// Scheme returns the partitioning scheme.
func (pt *Partition) Scheme() Scheme { return pt.scheme }

// NumRanks returns p.
func (pt *Partition) NumRanks() int { return pt.p }

// NumVertices returns n.
func (pt *Partition) NumVertices() int { return pt.n }

// Owner returns the rank that owns vertex v.
func (pt *Partition) Owner(v graph.V) int {
	switch pt.scheme {
	case Block:
		// Inverse of the balanced block ranges produced by rangeOf.
		return (int(v)*pt.p + pt.p - 1) / pt.n
	case BlockArcs:
		// Binary search for the range containing v: the largest r with
		// bounds[r] <= v.
		lo, hi := 0, pt.p
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pt.bounds[mid+1] <= int(v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	default: // Cyclic
		return int(v) % pt.p
	}
}

// rangeOf returns the contiguous global-id range [lo,hi) owned by rank under
// the Block and BlockArcs schemes. It panics for Cyclic partitions, whose
// ownership is not contiguous.
func (pt *Partition) rangeOf(rank int) (lo, hi graph.V) {
	switch pt.scheme {
	case Block:
		return graph.V(rank * pt.n / pt.p), graph.V((rank + 1) * pt.n / pt.p)
	case BlockArcs:
		return graph.V(pt.bounds[rank]), graph.V(pt.bounds[rank+1])
	default:
		panic("part: rangeOf is only defined for contiguous (Block/BlockArcs) partitions")
	}
}

// Size returns the number of vertices owned by rank.
func (pt *Partition) Size(rank int) int {
	switch pt.scheme {
	case Block, BlockArcs:
		lo, hi := pt.rangeOf(rank)
		return int(hi - lo)
	default:
		base := pt.n / pt.p
		if rank < pt.n%pt.p {
			base++
		}
		return base
	}
}

// LocalIndex converts the global id of a vertex into its index within its
// owner's local arrays.
func (pt *Partition) LocalIndex(v graph.V) int {
	switch pt.scheme {
	case Block, BlockArcs:
		lo, _ := pt.rangeOf(pt.Owner(v))
		return int(v - lo)
	default:
		return int(v) / pt.p
	}
}

// VertexAt is the inverse of LocalIndex: the global id of the local-th
// vertex of rank.
func (pt *Partition) VertexAt(rank, local int) graph.V {
	switch pt.scheme {
	case Block, BlockArcs:
		lo, _ := pt.rangeOf(rank)
		return lo + graph.V(local)
	default:
		return graph.V(local*pt.p + rank)
	}
}

// Stride is the step between the global ids of a rank's consecutive local
// vertices: VertexAt(rank, li) = VertexAt(rank, 0) + li*Stride().
func (pt *Partition) Stride() graph.V {
	if pt.scheme == Cyclic {
		return graph.V(pt.p)
	}
	return 1
}

// EdgeCut returns the fraction of arcs (u,v) whose endpoints live on
// different ranks. The paper observes 95% cut for R-MAT S20 E24 on 8 ranks
// and uses the cut fraction to explain why communication dominates.
func EdgeCut(g graph.Store, pt *Partition) float64 {
	arcs := g.NumArcs()
	if arcs == 0 {
		return 0
	}
	cut := 0
	var buf []graph.V
	for v := 0; v < g.NumVertices(); v++ {
		ov := pt.Owner(graph.V(v))
		buf = g.AdjInto(graph.V(v), buf)
		for _, u := range buf {
			if pt.Owner(u) != ov {
				cut++
			}
		}
	}
	return float64(cut) / float64(arcs)
}

// Imbalance returns max_rank(arcs owned)/mean(arcs owned) — the load
// imbalance the paper blames for Orkut's weaker scaling (§IV-D-2, up to 25%
// runtime difference between processes).
func Imbalance(g graph.Store, pt *Partition) float64 {
	arcs := make([]int, pt.p)
	for v := 0; v < g.NumVertices(); v++ {
		arcs[pt.Owner(graph.V(v))] += g.OutDegree(graph.V(v))
	}
	max, sum := 0, 0
	for _, a := range arcs {
		sum += a
		if a > max {
			max = a
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(pt.p)
	return float64(max) / mean
}

// LocalCSR is one rank's partition of the graph in CSR form: the arrays the
// rank exposes in its RMA windows (Fig. 3 of the paper). Offsets are local
// (offsets[i] indexes into Adj for the rank's i-th owned vertex), while
// adjacency entries keep their *global* vertex ids, so a reader can chase
// them to other ranks.
type LocalCSR struct {
	Rank    int
	Offsets []uint64  // length Size(rank)+1
	Adj     []graph.V // concatenated adjacency lists, global ids (nil when compressed)
	// Comp holds the varint/delta-compressed adjacency plane when the rank's
	// lists are stored compressed (Adj is nil then). Offsets stays plain —
	// the offsets window serves it as the (start,end) records its byte image
	// pins, model-visible regardless of how adjacency is stored host-side.
	Comp *graph.CompressedAdj
}

// extract builds rank's LocalCSR from the full graph. In a real deployment
// each node reads only its chunk from disk (Fig. 3 step 1); here the
// in-memory store plays the role of the shared file.
//
// A rank's range of a plain graph under Block/BlockArcs is contiguous in
// both arrays, so it is one rebased copy of each. The local never aliases g:
// a snapshot's resident tables must be damageable and reloadable on their
// own (serve's scrub recovery rebuilds from g).
func extract(g graph.Store, pt *Partition, rank int) *LocalCSR {
	if pg, ok := g.(*graph.Graph); ok && pt.scheme != Cyclic {
		lo, hi := pt.rangeOf(rank)
		src := pg.Offsets()[lo : hi+1]
		offsets := make([]uint64, len(src))
		for i, o := range src {
			offsets[i] = o - src[0]
		}
		adj := make([]graph.V, offsets[len(offsets)-1])
		copy(adj, pg.Arcs()[src[0]:])
		return &LocalCSR{Rank: rank, Offsets: offsets, Adj: adj}
	}
	size := pt.Size(rank)
	offsets := make([]uint64, size+1)
	total := 0
	for i := 0; i < size; i++ {
		total += g.OutDegree(pt.VertexAt(rank, i))
	}
	adj := make([]graph.V, 0, total)
	var buf []graph.V
	for i := 0; i < size; i++ {
		buf = g.AdjInto(pt.VertexAt(rank, i), buf)
		adj = append(adj, buf...)
		offsets[i+1] = uint64(len(adj))
	}
	return &LocalCSR{Rank: rank, Offsets: offsets, Adj: adj}
}

// extractCompressed builds rank's LocalCSR with varint/delta-compressed
// adjacency, encoding straight from the source store without materializing
// the plain local lists. The decoded lists are bit-identical to extract's,
// so everything downstream of the decode — partitions, windows, charges —
// is too.
func extractCompressed(g graph.Store, pt *Partition, rank int) *LocalCSR {
	size := pt.Size(rank)
	offsets := make([]uint64, size+1)
	for i := 0; i < size; i++ {
		offsets[i+1] = offsets[i] + uint64(g.OutDegree(pt.VertexAt(rank, i)))
	}
	comp := graph.NewCompressedAdj(offsets, func(i int, buf []graph.V) []graph.V {
		return g.AdjInto(pt.VertexAt(rank, i), buf)
	})
	return &LocalCSR{Rank: rank, Offsets: offsets, Comp: comp}
}

// Extract builds rank's LocalCSR, its adjacency varint/delta-compressed
// when compressed is set.
func Extract(g graph.Store, pt *Partition, rank int, compressed bool) *LocalCSR {
	if compressed {
		return extractCompressed(g, pt, rank)
	}
	return extract(g, pt, rank)
}

// ExtractAll builds every rank's LocalCSR, the ranks on every core
// (sched.Fan), as each rank reads its own chunk at once in Fig. 3 step 1.
func ExtractAll(g graph.Store, pt *Partition) []*LocalCSR {
	out := make([]*LocalCSR, pt.NumRanks())
	sched.Fan(len(out), g.NumVertices()+g.NumArcs(), func(r int) { out[r] = extract(g, pt, r) })
	return out
}

// Compressed reports whether the rank's adjacency is stored compressed.
func (lc *LocalCSR) Compressed() bool { return lc.Comp != nil }

// AdjOf returns the adjacency list of the rank's local-th vertex as an
// aliased view. It is only available on plain locals; compressed callers
// must use AdjInto (a silent decode-and-allocate here would hide exactly
// the per-access cost the compressed form trades away).
func (lc *LocalCSR) AdjOf(local int) []graph.V {
	if lc.Comp != nil {
		panic("part: AdjOf on a compressed LocalCSR; use AdjInto")
	}
	return lc.Adj[lc.Offsets[local]:lc.Offsets[local+1]]
}

// AdjInto returns the adjacency list of the rank's local-th vertex: an
// aliased view for plain locals, a decode into buf for compressed ones.
func (lc *LocalCSR) AdjInto(local int, buf []graph.V) []graph.V {
	if lc.Comp != nil {
		return lc.Comp.DecodeList(local, buf)
	}
	return lc.Adj[lc.Offsets[local]:lc.Offsets[local+1]]
}

// DegreeOf returns the degree of the local-th vertex without decoding.
func (lc *LocalCSR) DegreeOf(local int) int {
	return int(lc.Offsets[local+1] - lc.Offsets[local])
}

// AdjMemBytes returns the resident bytes of the adjacency plane (offsets
// excluded): 4 per arc when plain, the encoded footprint when compressed.
func (lc *LocalCSR) AdjMemBytes() int64 {
	if lc.Comp != nil {
		return lc.Comp.MemBytes()
	}
	return int64(len(lc.Adj)) * 4
}

// NumLocal returns the number of vertices owned by this rank.
func (lc *LocalCSR) NumLocal() int { return len(lc.Offsets) - 1 }
