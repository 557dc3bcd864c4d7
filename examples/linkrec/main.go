// Link recommendation with LCC and triangle structure — the paper's second
// motivating application: "clustering coefficient is used to locate
// thematic relationships by looking at the graph of hyperlinks" (Eckmann &
// Moses; §I).
//
// The example runs distributed LCC on a directed web-like graph, then
// recommends new links: pairs of pages that share many common neighbours
// (an almost-closed triangle) but are not yet connected. Candidate sources
// are drawn from thematically coherent pages (high LCC), where a missing
// link is most meaningful.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	g := repro.MustLoadDataset("wiki-sim") // wiki-en stand-in (directed)
	fmt.Printf("hyperlink graph: %d pages, %d links (directed)\n",
		g.NumVertices(), g.NumEdges())

	res, err := repro.RunLCC(g, repro.LCCOptions{
		Ranks:             16,
		Method:            repro.MethodHybrid,
		DoubleBuffer:      true,
		Caching:           true,
		OffsetsCacheBytes: 16 * g.NumVertices(),
		AdjCacheBytes:     32 << 20,
		AdjScorePolicy:    repro.ScoreDegree,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("computed LCC for every page in %.1f ms of simulated time on 16 nodes\n",
		res.SimTime/1e6)

	// Pick thematically coherent source pages: high LCC with enough links
	// for the signal to mean something.
	type page struct {
		v   repro.V
		lcc float64
	}
	var coherent []page
	for v, c := range res.LCC {
		if g.OutDegree(repro.V(v)) >= 8 && c > 0 {
			coherent = append(coherent, page{repro.V(v), c})
		}
	}
	sort.Slice(coherent, func(i, j int) bool { return coherent[i].lcc > coherent[j].lcc })
	if len(coherent) > 50 {
		coherent = coherent[:50]
	}

	// For each coherent page, find the strongest non-linked 2-hop
	// neighbour by common-neighbour count (the triangle-closing score).
	type rec struct {
		from, to repro.V
		common   int
	}
	var recs []rec
	for _, p := range coherent {
		counts := map[repro.V]int{}
		for _, mid := range g.Adj(p.v) {
			for _, cand := range g.Adj(mid) {
				if cand != p.v && !g.HasEdge(p.v, cand) {
					counts[cand]++
				}
			}
		}
		bestV, best := repro.V(0), 0
		for cand, c := range counts {
			if c > best || (c == best && cand < bestV) {
				bestV, best = cand, c
			}
		}
		if best >= 3 {
			recs = append(recs, rec{p.v, bestV, best})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].common != recs[j].common {
			return recs[i].common > recs[j].common
		}
		return recs[i].from < recs[j].from
	})

	fmt.Printf("\ntop link recommendations (missing edges closing the most triangles):\n")
	for i, r := range recs {
		if i == 10 {
			break
		}
		fmt.Printf("  page %-7d -> page %-7d closes %d open triangles (source LCC %.3f)\n",
			r.from, r.to, r.common, res.LCC[r.from])
	}
	if len(recs) == 0 {
		fmt.Println("  (no candidates above the threshold)")
	}
}
