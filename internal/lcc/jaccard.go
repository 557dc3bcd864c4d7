package lcc

import (
	"context"

	"repro/internal/graph"
)

// Jaccard similarity is the paper's future-work direction (ii): "other
// graph problems that may benefit from the proposed approach" — the
// authors' own prior work computes distributed Jaccard similarity with
// exactly this access pattern (Besta et al., IPDPS'20, cited as [12]).
//
// The per-edge Jaccard coefficient J(u,v) = |adj(u) ∩ adj(v)| / |adj(u) ∪
// adj(v)| needs, for every edge, the same two-get remote read of adj(v)
// the LCC engine performs, so it runs on the identical asynchronous RMA
// substrate — caching, degree scores and double buffering included.

// JaccardResult is the output of a distributed Jaccard computation.
type JaccardResult struct {
	// Scores holds one coefficient per stored arc, aligned with the
	// graph's CSR order: Scores[k] is the similarity across the k-th arc
	// (for undirected graphs each edge appears twice, once per
	// direction, with equal scores).
	Scores  []float64
	SimTime float64
	PerRank []RankStats
}

// RunJaccard computes the per-edge Jaccard similarity with the same fully
// asynchronous distributed engine as RunLCC, and the same panic-isolation
// and crash-stop contract as RunCtx.
func RunJaccard(g graph.Store, opt Options) (*JaccardResult, error) {
	snap, err := opt.snapshot(g)
	if err != nil {
		return nil, err
	}
	return snap.RunJaccardCtx(context.Background(), opt)
}
