// Community detection with LCC — the first application the paper's
// introduction motivates: "LCC is used to detect communities in, e.g.,
// social networks, distinguishing between vertices that are central to the
// cluster from others on its frontier".
//
// The example runs the distributed LCC engine (with RMA caching) on the
// social-circles dataset and classifies vertices into community cores
// (high LCC: their friends know each other) and frontiers (low LCC: they
// bridge between circles), then reports how the two classes differ.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	g := repro.MustLoadDataset("fb-sim") // Facebook-circles stand-in
	fmt.Printf("social graph: %d members, %d friendships\n", g.NumVertices(), g.NumEdges())

	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks:        8,
		Method:       repro.MethodHybrid,
		DoubleBuffer: true,
		// Social graphs have hubs that are read over and over (Fig. 1);
		// cache them with degree-centrality eviction scores (§III-B-2).
		Caching:           true,
		OffsetsCacheBytes: 16 * g.NumVertices(),
		AdjCacheBytes:     16 << 20,
		AdjScorePolicy:    repro.ScoreDegree,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Classify by LCC quantile: the top quartile sits inside densely
	// connected circles (cores); the bottom quartile bridges between
	// circles (frontiers).
	type member struct {
		v   repro.V
		lcc float64
		deg int
	}
	all := make([]member, 0, g.NumVertices())
	for v, c := range res.LCC {
		all = append(all, member{repro.V(v), c, g.OutDegree(repro.V(v))})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lcc > all[j].lcc })
	q := len(all) / 4
	cores, frontiers := all[:q], all[len(all)-q:]
	fmt.Printf("\ncommunity cores (top LCC quartile, LCC >= %.3f): %d members\n", cores[len(cores)-1].lcc, len(cores))
	fmt.Printf("community frontiers (bottom LCC quartile, LCC <= %.3f): %d members\n", frontiers[0].lcc, len(frontiers))

	avgDeg := func(ms []member) float64 {
		if len(ms) == 0 {
			return 0
		}
		s := 0
		for _, m := range ms {
			s += m.deg
		}
		return float64(s) / float64(len(ms))
	}
	fmt.Printf("average degree: cores %.1f vs frontiers %.1f\n", avgDeg(cores), avgDeg(frontiers))

	// The most "embedded" members: highest LCC among well-connected ones.
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].lcc != cores[j].lcc {
			return cores[i].lcc > cores[j].lcc
		}
		return cores[i].deg > cores[j].deg
	})
	fmt.Println("\nmost embedded community members:")
	for i, m := range cores {
		if i == 5 {
			break
		}
		fmt.Printf("  member %-6d lcc=%.3f degree=%d\n", m.v, m.lcc, m.deg)
	}

	// Caching effectiveness on this workload.
	offRate, adjRate := res.CacheMissRates()
	fmt.Printf("\nRMA caching: C_offsets miss rate %.2f, C_adj miss rate %.2f\n", offRate, adjRate)
	fmt.Printf("simulated job time: %.2f ms on 8 nodes\n", res.SimTime/1e6)
}
