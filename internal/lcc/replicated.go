package lcc

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
	"repro/internal/rma"
)

// This file implements replicated-groups 1D distribution — "1.5D" — the
// paper's future-work direction (i): "distribution schema that have lower
// communication costs than 1D distribution", citing the 2.5D matrix
// algorithms of Solomonik & Demmel [41]. The 2.5D idea is to spend memory
// to buy communication: replicate the data c times and let each replica do
// 1/c of the work against a coarser partition.
//
// Applied to the paper's 1D vertex distribution with p ranks and
// replication factor c (c | p): the ranks form c groups of q = p/c slots.
// The graph is partitioned q ways — much coarser than the p-way 1D
// partition — and group i's slot j holds a full copy of partition j. The
// owned vertices of partition j are interleaved over the c replicas
// (local index ≡ i mod c), so every vertex is scored by exactly one rank
// and the result needs no reduction: the engine stays fully asynchronous,
// preserving the paper's central design property.
//
// What changes is the edge cut each fetch sees: a remote neighbour is one
// that falls outside a 1/q slice of the graph instead of a 1/p slice, so
// the remote-read fraction drops from ~(p-1)/p toward ~(q-1)/q, and every
// remote get stays inside the rank's own group (slot s of group i reads
// from rank i·q+s). The price is memory: each rank stores n/q vertices
// instead of n/p — exactly c times more, the 2.5D trade. The A13 ablation
// sweeps c at fixed p.

// ReplicatedOptions configure a replicated-groups run.
type ReplicatedOptions struct {
	Options
	// Replication is the number of graph copies c. It must divide Ranks.
	// c = 1 reduces to the plain 1D engine layout.
	Replication int
}

// RunReplicated executes LCC over the replicated-groups distribution.
// Results are bit-identical to Run's; only the communication pattern and
// the per-rank memory differ.
func RunReplicated(g graph.Store, opt ReplicatedOptions) (*Result, error) {
	return RunReplicatedCtx(context.Background(), g, opt)
}

// RunReplicatedCtx is RunReplicated under supervision, with the same
// cancellation, panic-isolation and crash-stop contract as RunCtx.
func RunReplicatedCtx(ctx context.Context, g graph.Store, opt ReplicatedOptions) (*Result, error) {
	n := g.NumVertices()
	opt.Options = opt.Options.withDefaults(n)
	c := opt.Replication
	if c == 0 {
		c = 1
	}
	if c < 1 || opt.Ranks%c != 0 {
		return nil, fmt.Errorf("lcc: replication factor %d does not divide %d ranks", c, opt.Ranks)
	}
	q := opt.Ranks / c
	pt, err := part.Build(opt.Scheme, g, q)
	if err != nil {
		return nil, err
	}
	slots := extractLocals(g, pt, opt.Storage, opt.MemBudgetBytes)

	// Rank r = group·q + slot exposes partition `slot` (makeGraphWindows
	// wraps the slot index modulo len(slots)). The per-rank window sizes
	// — and hence the memory accounting of the 2.5D trade — are identical
	// across replicas of a slot; the host-side storage is now shared,
	// which is exactly the zero-copy point.
	comm := rma.NewCommWorkers(opt.Ranks, opt.Model, opt.Workers)
	opt.configureCharges(comm)
	wOff, wAdj := makeGraphWindows(comm, slots)
	resolve := buildResolve(pt)
	deleg := BuildDelegation(g, opt.DelegateBytes)

	lccOut := make([]float64, n)
	triOut := make([]int64, opt.Ranks)
	stats := make([]RankStats, opt.Ranks)

	ranks, err := comm.RunCtx(ctx, func(r *rma.Rank) {
		group, slot := r.ID()/q, r.ID()%q
		w := newWorker(r, g.Kind(), pt, slots[slot], wOff, wAdj, resolve, opt.Options, nil)
		w.deleg = deleg
		// All fetches stay inside the rank's own group: the shared
		// resolve table yields slot coordinates, and ownerBase maps a
		// slot to the replica this rank reads from.
		w.slot, w.ownerBase = slot, group*q
		defer w.close()
		sumT := w.runSlice(lccOut, slot, group, c)
		w.close()
		triOut[r.ID()] = sumT
		stats[r.ID()] = w.stats()
	})
	if err != nil {
		return nil, err
	}

	res := &Result{LCC: lccOut, PerRank: stats, SimTime: rma.MaxClock(ranks),
		DelegatedVertices: deleg.Len(), DelegationBytes: deleg.Bytes()}
	for _, t := range triOut {
		res.SumT += t
	}
	res.Triangles = TriangleCount(g.Kind(), res.SumT)
	return res, nil
}

// runSlice executes Algorithm 3 for the 1/c interleaved share of the
// rank's partition: local indices li ≡ phase (mod c). The walk reuses the
// standard fetch pipeline; skipped vertices never issue communication.
func (w *worker) runSlice(lccOut []float64, slot, phase, c int) int64 {
	nLocal := w.lc.NumLocal()
	perVertexT := make([]int64, nLocal)
	w.edgeFilter = func(li int, vj graph.V) bool { return li%c == phase }

	w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
		adjI := w.adjOwned(li)
		if w.kind == graph.Undirected {
			adjJ = intersect.UpperSlice(adjJ, vj)
		}
		cnt, ops := w.its.Count(w.opt.Method, adjI, adjJ)
		w.r.Compute(ops + 4)
		perVertexT[li] += int64(cnt)
	})

	var sumT int64
	for li := phase; li < nLocal; li += c {
		v := w.pt.VertexAt(slot, li)
		d := w.lc.DegreeOf(li)
		lccOut[v] = Score(w.kind, perVertexT[li], d)
		sumT += perVertexT[li]
		w.r.Compute(2)
	}
	return sumT
}

// ReplicaWindowBytes reports the per-rank window memory of a replicated
// run with the given parameters — the cost side of the 2.5D trade.
func ReplicaWindowBytes(g graph.Store, ranks, replication int) (int64, error) {
	if replication < 1 || ranks%replication != 0 {
		return 0, fmt.Errorf("lcc: replication factor %d does not divide %d ranks", replication, ranks)
	}
	q := ranks / replication
	// Max over slots of (16 bytes per owned vertex + 4 per arc).
	pt, err := part.Build(part.Block, g, q)
	if err != nil {
		return 0, err
	}
	var max int64
	for s := 0; s < q; s++ {
		lo, hi := pt.Range(s)
		var arcs int64
		for v := lo; v < hi; v++ {
			arcs += int64(g.OutDegree(v))
		}
		b := 16*int64(hi-lo) + 4*arcs
		if b > max {
			max = b
		}
	}
	return max, nil
}
