// Package disttc reimplements the DistTC baseline (Hoang et al., "DistTC:
// High Performance Distributed Triangle Counting", HPEC'19), the second
// comparator the paper discusses (§I, §V-C): instead of communicating
// during the computation, DistTC *precomputes and distributes shadow
// edges* — mirrored copies of the remote adjacency lists every rank will
// need — so the triangle-counting phase itself is communication-free.
//
// The paper's critique, which this simulation reproduces, is that the
// approach "leads to a low computation time but makes the total running
// time dominated by this pre-computation step, similarly limiting
// scalability" (§I). The precompute phase is a bulk-synchronous
// request–response exchange over the same p2p substrate TriC uses; the
// shadow volume grows with the edge cut, so over-partitioned scale-free
// graphs replicate a large fraction of the graph onto every rank.
package disttc

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/p2p"
	"repro/internal/part"
	"repro/internal/rma"
)

// Options configure a DistTC run.
type Options struct {
	Ranks int
	// Workers bounds concurrent superstep execution on the host; 0
	// selects GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	return o
}

// Result is the output of a DistTC run.
type Result struct {
	LCC       []float64
	Triangles int64
	SimTime   float64 // slowest rank over the whole run, ns

	// PrecomputeTime is the simulated time of the shadow-edge phase
	// (request + response + install), the rest of SimTime the local counting
	// phase. Their ratio is the paper's argument against the approach.
	PrecomputeTime float64

	// ShadowArcs is the total number of mirrored adjacency entries
	// shipped across all ranks; ReplicationFactor is
	// (local + shadow arcs) / local arcs, the memory-overhead metric.
	ShadowArcs        int64
	ReplicationFactor float64

	Supersteps int
	PerRank    []p2p.Counters
	// Ledgers is where each rank's time went; every clock ends at SimTime.
	Ledgers []rma.Ledger
}

// Run executes DistTC on an undirected graph with p ranks.
//
// Phases:
//  1. Orientation. Every rank derives the degree-ordered orientation of
//     its owned vertices locally (degrees of neighbours are readable from
//     the CSR partition exchange that built the distribution, so this
//     costs one scan — charged as compute).
//  2. Shadow precompute. For each owned vertex u and each v ∈ out(u)
//     owned remotely, the rank needs out(v). Ranks exchange request lists
//     and answer with the oriented adjacency lists (the "shadow edges").
//  3. Local counting. Each rank counts, for every owned u and v ∈ out(u),
//     |out(u) ∩ out(v)| using local or shadow lists only — no
//     communication, the defining property of DistTC.
//  4. Credit exchange. Per-vertex triangle credits for remote corners are
//     shipped to their owners (one aggregated message per peer) and the
//     global count is reduced.
//
// A superstep body that panics ends the run with the *sched.PanicError.
func Run(g graph.Store, opt Options) (*Result, error) {
	if g.Kind() != graph.Undirected {
		return nil, fmt.Errorf("disttc: requires an undirected graph, got %v", g.Kind())
	}
	opt = opt.withDefaults()
	n := g.NumVertices()
	// The 1D block distribution, matching the repository's other engines:
	// DistTC itself uses an edge-cut minimizing policy, but the comparison
	// holds the partitioning fixed so only the communication strategy
	// differs.
	pt, err := part.Build(part.Block, g, opt.Ranks)
	if err != nil {
		return nil, err
	}
	o, err := lcc.Orient(g)
	if err != nil {
		return nil, err
	}
	world := p2p.NewWorldWorkers(opt.Ranks, rma.DefaultCostModel(), opt.Workers)

	res := &Result{LCC: make([]float64, n)}
	perVertexT := make([]int64, n)

	// --- phase 1+2: request shadow lists --------------------------------
	type request []graph.V                 // vertex ids whose oriented lists are needed
	needed := make([][]graph.V, opt.Ranks) // per requesting rank: deduped remote refs
	world.Superstep(func(r *p2p.Rank) {
		// Dense dedup bitmap: one flat scan-friendly []bool beats a hash
		// map for the all-vertices key space, and needed keeps its
		// deterministic append order either way.
		seen := make([]bool, n)
		for li := 0; li < pt.Size(r.ID()); li++ {
			u := pt.VertexAt(r.ID(), li)
			outU := o.Out(u)
			r.Compute(len(outU)) // orientation scan
			for _, v := range outU {
				if pt.Owner(v) != r.ID() && !seen[v] {
					seen[v] = true
					needed[r.ID()] = append(needed[r.ID()], v)
				}
			}
		}
		// Deterministic request order, grouped by owner.
		sort.Slice(needed[r.ID()], func(i, j int) bool {
			return needed[r.ID()][i] < needed[r.ID()][j]
		})
		byOwner := make([]request, opt.Ranks)
		for _, v := range needed[r.ID()] {
			byOwner[pt.Owner(v)] = append(byOwner[pt.Owner(v)], v)
		}
		for dst, req := range byOwner {
			if len(req) > 0 {
				r.SendPayload(dst, req, 4*len(req))
			}
		}
	})

	// --- phase 2b: answer with shadow lists -----------------------------
	type shadowList struct {
		v   graph.V
		out []graph.V
	}
	type shadowBatch []shadowList
	wire := func(b shadowBatch) int {
		s := 0
		for _, sl := range b {
			s += 4 * (2 + len(sl.out)) // [v, len, data...]
		}
		return s
	}
	world.Superstep(func(r *p2p.Rank) {
		batches := make([]shadowBatch, opt.Ranks)
		for _, m := range r.Inbox() {
			req := m.Payload.(request)
			r.Compute(len(req))
			for _, v := range req {
				out := o.Out(v)
				batches[m.From] = append(batches[m.From], shadowList{v: v, out: out})
				r.Compute(len(out)) // staging copy
			}
		}
		for dst, b := range batches {
			if len(b) > 0 {
				r.SendPayload(dst, b, wire(b))
			}
		}
	})

	// --- phase 2c: install shadows, then count locally ------------------
	shadow := make([]map[graph.V][]graph.V, opt.Ranks)
	shadowArcs := make([]int64, opt.Ranks) // per rank: bodies run concurrently
	world.Superstep(func(r *p2p.Rank) {
		shadow[r.ID()] = make(map[graph.V][]graph.V)
		for _, m := range r.Inbox() {
			for _, sl := range m.Payload.(shadowBatch) {
				shadow[r.ID()][sl.v] = sl.out
				shadowArcs[r.ID()] += int64(len(sl.out))
				r.Compute(len(sl.out) + 2) // install copy
			}
		}
	})
	for _, a := range shadowArcs {
		res.ShadowArcs += a
	}
	res.PrecomputeTime = world.MaxClock()

	// --- phase 3: communication-free local counting ---------------------
	type credit struct {
		v graph.V
		t int64
	}
	type creditBatch []credit
	pendingCredits := make([][]map[graph.V]int64, opt.Ranks)
	for i := range pendingCredits {
		pendingCredits[i] = make([]map[graph.V]int64, opt.Ranks)
		for j := range pendingCredits[i] {
			pendingCredits[i][j] = make(map[graph.V]int64)
		}
	}
	outOf := func(rank int, v graph.V) []graph.V {
		if pt.Owner(v) == rank {
			return o.Out(v)
		}
		return shadow[rank][v]
	}
	world.Superstep(func(r *p2p.Rank) {
		its := intersect.GetScratch()
		defer intersect.PutScratch(its)
		addCredit := func(v graph.V, t int64) {
			if owner := pt.Owner(v); owner != r.ID() {
				pendingCredits[r.ID()][owner][v] += t
			} else {
				perVertexT[v] += t
			}
		}
		var common []graph.V
		for li := 0; li < pt.Size(r.ID()); li++ {
			u := pt.VertexAt(r.ID(), li)
			outU := o.Out(u)
			for _, v := range outU {
				outV := outOf(r.ID(), v)
				// The scratch kernels count out(u) ∩ out(v) on the
				// host's fast path while charging the exact iteration
				// count of the plain Algorithm 2 merge this phase used
				// to inline; the credits walk the same ascending
				// common-neighbour order.
				var ops int
				common, ops = its.Elements(intersect.MethodSSI, outU, outV, common[:0])
				for _, w := range common {
					addCredit(u, 1)
					addCredit(v, 1)
					addCredit(w, 1)
				}
				r.Compute(ops + 2)
			}
		}
	})

	// --- phase 4: credit exchange + reduction ---------------------------
	world.Superstep(func(r *p2p.Rank) {
		for dst := 0; dst < opt.Ranks; dst++ {
			m := pendingCredits[r.ID()][dst]
			if len(m) == 0 {
				continue
			}
			batch := make(creditBatch, 0, len(m))
			for v, t := range m {
				batch = append(batch, credit{v: v, t: t})
			}
			sort.Slice(batch, func(i, j int) bool { return batch[i].v < batch[j].v })
			r.SendPayload(dst, batch, 12*len(batch)) // [v, t64] pairs
		}
	})
	world.Superstep(func(r *p2p.Rank) {
		for _, m := range r.Inbox() {
			for _, c := range m.Payload.(creditBatch) {
				perVertexT[c.v] += c.t
			}
			r.Compute(2 * len(m.Payload.(creditBatch)))
		}
	})

	if err := world.Err(); err != nil {
		return nil, err
	}
	partial := make([]int64, opt.Ranks)
	for v := 0; v < n; v++ {
		partial[pt.Owner(graph.V(v))] += perVertexT[v]
	}
	sumT := world.AllreduceSum(partial)
	// Under an acyclic orientation each triangle is found once and
	// credited once to each corner, so Σt = 3Δ regardless of direction
	// conventions.
	res.Triangles = sumT / 3
	for v := 0; v < n; v++ {
		res.LCC[v] = lcc.Score(graph.Undirected, perVertexT[v], g.OutDegree(graph.V(v)))
	}
	res.SimTime = world.MaxClock()
	res.Supersteps = world.Steps()
	localArcs := int64(g.NumEdges()) // oriented arcs = m
	if localArcs > 0 {
		res.ReplicationFactor = float64(localArcs+res.ShadowArcs) / float64(localArcs)
	}
	for _, r := range world.Ranks() {
		res.PerRank = append(res.PerRank, r.Counters())
		res.Ledgers = append(res.Ledgers, r.Ledger())
	}
	return res, nil
}

// MustRun is Run for known-valid options; it panics on error.
func MustRun(g graph.Store, opt Options) *Result {
	r, err := Run(g, opt)
	if err != nil {
		panic(fmt.Sprintf("disttc: %v", err))
	}
	return r
}
