package lcc

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/part"
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
	c := opt.Replication
	if c == 0 {
		c = 1
	}
	// One snapshot over the q = p/c slots of a group; launch exposes it c
	// times over (rank r = group·q + slot), and all of a rank's fetches stay
	// inside its own group.
	s, err := opt.snapshot(g, c)
	if err != nil {
		return nil, err
	}
	return s.runReplicatedCtx(ctx, opt.Options, c)
}

// runReplicatedCtx runs c replica groups over s, a snapshot of one group's
// slots.
func (s *Snapshot) runReplicatedCtx(ctx context.Context, opt Options, c int) (*Result, error) {
	lccOut := make([]float64, s.n)
	return s.launch(ctx, opt, c, lccOut, nil, func(w *worker) int64 {
		return w.run(lccOut, w.r.ID()/s.ranks, c)
	})
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
