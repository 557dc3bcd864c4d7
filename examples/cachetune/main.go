// Cache tuning walk-through: how the CLaMPI cache configuration changes
// the communication profile of the distributed LCC computation (§III-B and
// Figs. 7/8 of the paper, as an interactive-scale program).
//
// The example sweeps the C_adj capacity, compares LRU+positional eviction
// against the paper's degree-centrality scores, and shows the compulsory-
// miss floor that no cache size can cross.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	g := repro.MustLoadDataset("rmat-s14-ef16")
	fmt.Printf("graph: %d vertices, %d edges (R-MAT, power-law)\n",
		g.NumVertices(), g.NumEdges())
	const ranks = 8

	base, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nno caching: %.2f ms simulated, %.0f%% of fetches remote\n",
		base.SimTime/1e6, 100*base.RemoteReadFraction())

	// Sweep C_adj relative to the adjacency array size.
	fmt.Println("\nC_adj capacity sweep (LRU+positional eviction):")
	fmt.Println("  rel size   sim time    vs uncached   miss rate   compulsory misses")
	adjFull := 4 * g.NumArcs()
	for _, rel := range []float64{0.05, 0.25, 1.0} {
		res, err := repro.RunLCC(g, repro.LCCOptions{
			Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
			Caching:           true,
			OffsetsCacheBytes: 16 * g.NumVertices(),
			AdjCacheBytes:     int(rel * float64(adjFull)),
		})
		if err != nil {
			log.Fatal(err)
		}
		_, adjMiss := res.CacheMissRates()
		var comp, miss int64
		for _, s := range res.PerRank {
			comp += s.AdjCache.CompulsoryMisses
			miss += s.AdjCache.Misses
		}
		fmt.Printf("  %-9.2f  %7.2f ms  %+9.1f%%   %9.3f   %d of %d\n",
			rel, res.SimTime/1e6, 100*(res.SimTime-base.SimTime)/base.SimTime,
			adjMiss, comp, miss)
	}

	// Under eviction pressure, the paper's application-defined scores
	// keep the high-degree (most reused) entries resident.
	fmt.Println("\neviction scores at 25% capacity:")
	for _, policy := range []repro.ScorePolicy{repro.ScoreLRU, repro.ScoreDegree} {
		res, err := repro.RunLCC(g, repro.LCCOptions{
			Ranks: ranks, Method: repro.MethodHybrid, DoubleBuffer: true,
			Caching:           true,
			OffsetsCacheBytes: 16 * g.NumVertices(),
			AdjCacheBytes:     adjFull / 4,
			AdjScorePolicy:    policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		_, adjMiss := res.CacheMissRates()
		name := "LRU+positional"
		if policy == repro.ScoreDegree {
			name = "degree scores "
		}
		fmt.Printf("  %s: miss rate %.3f, avg remote read %.2f µs, sim time %.2f ms\n",
			name, adjMiss, res.AvgRemoteReadTime()/1e3, res.SimTime/1e6)
	}
	fmt.Println("\n(the compulsory-miss column is the floor Figs. 7/8 shade in grey:")
	fmt.Println(" first-touch reads that no cache configuration can avoid)")
}
