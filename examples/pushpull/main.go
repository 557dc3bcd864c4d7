// Pushpull walks the push–pull dichotomy the paper lists as future work
// (§VI ii). The paper's engine *pulls*: every rank reads the adjacency
// lists it is missing and counts triangles for its own vertices, so each
// triangle is discovered three times — once per corner owner. The push
// engine discovers each triangle exactly once (at the owner of its
// hash-smallest corner), ships the other two corners' contributions in
// one combined accumulate per peer, and pays a single closing fence.
//
// Neither side always wins, and this example shows both regimes:
//
//   - a scale-free graph, where pull + CLaMPI caching reuses the hub
//     adjacency lists and beats everything;
//   - a uniform-degree graph, where there is nothing to cache and push's
//     halved get traffic wins.
package main

import (
	"fmt"
	"log"

	"repro"
)

func run(g *repro.Graph, name string, ranks int) {
	fmt.Printf("%s: |V|=%d |E|=%d, %d ranks\n", name, g.NumVertices(), g.NumEdges(), ranks)

	pull, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	cached, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
		Caching: true, AdjScorePolicy: repro.ScoreDegree,
		// The paper's Fig. 9 budget: C_offsets sized for the vertex set,
		// C_adj ample ("the rest of 16 GiB" at paper scale).
		OffsetsCacheBytes: 16 * g.NumVertices(),
		AdjCacheBytes:     64 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	push, err := repro.RunLCCPush(g, repro.LCCOptions{
		Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if pull.Triangles != push.Triangles || pull.Triangles != cached.Triangles {
		log.Fatalf("engines disagree: pull %d, cached %d, push %d",
			pull.Triangles, cached.Triangles, push.Triangles)
	}

	var pullGets, pushGets, pushPuts int64
	for i := 0; i < ranks; i++ {
		pullGets += pull.PerRank[i].RMA.Gets
		pushGets += push.PerRank[i].RMA.Gets
		pushPuts += push.PerRank[i].RMA.Puts
	}

	fmt.Printf("  %-28s %10.1f ms\n", "pull (paper engine)", pull.SimTime/1e6)
	fmt.Printf("  %-28s %10.1f ms   hit rate %.0f%%\n", "pull + CLaMPI cache",
		cached.SimTime/1e6, 100*cached.HitRate())
	fmt.Printf("  %-28s %10.1f ms   gets %.2fx of pull, %d batched accumulates\n",
		"push", push.SimTime/1e6, float64(pushGets)/float64(pullGets), pushPuts)

	best, t := "pull", pull.SimTime
	if cached.SimTime < t {
		best, t = "pull+cache", cached.SimTime
	}
	if push.SimTime < t {
		best = "push"
	}
	fmt.Printf("  winner: %s  (all agree on %d triangles)\n\n", best, pull.Triangles)
}

func main() {
	const ranks = 16

	// Scale-free: hubs make remote reads repeat, so caching pays.
	rmat := repro.Prepare(repro.RMAT(14, 16, repro.Undirected, 7), 7)
	run(rmat, "R-MAT S14 EF16 (scale-free)", ranks)

	// Uniform: every vertex is equally (un)popular — nothing to cache,
	// and halving the wedge walk is the only lever left.
	er := repro.Prepare(repro.ErdosRenyi(1<<14, 1<<18, repro.Undirected, 7), 7)
	run(er, "Erdős–Rényi 16k/262k (uniform)", ranks)

	fmt.Println("pull+cache wins where reuse exists; push wins where it does not.")
	fmt.Println("the pull engine stays fully asynchronous; push pays exactly one fence.")
}
