package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
)

// This file holds the extension experiments that go beyond the paper's own
// evaluation: the 2D and push directions of its future work (§VI), the
// orientation ablation from the Schank–Wagner reference (§V) and the
// relabeling ablation of §II-B. Ids follow the DESIGN.md §3 index.

// Ablation2D regenerates A9, the paper's future-work direction (i): the
// asynchronous 2D block engine against the 1D engine over a strong-scaling
// sweep, reporting per-rank remote traffic (max over ranks), per-rank get
// counts, and simulated times. 2D turns O(m/p) latency-bound small gets
// into 2(√p−1) block transfers.
func Ablation2D() *Table {
	t := &Table{
		ID:     "ablation-2d",
		Title:  "1D vs 2D asynchronous distribution (A9, future work i)",
		Paper:  "§VI i: 'distribution schema that have lower communication costs than 1D' (cites 2.5D matmul)",
		Header: []string{"ranks", "1d (ms)", "2d (ms)", "1d MB/rank", "2d MB/rank", "1d gets/rank", "2d gets/rank"},
		Notes: []string{
			"dataset rmat-s14-ef16; traffic and gets are the max over ranks; 2D gets = 2(√p−1)",
			"the 1d engine is non-cached here: caching recovers part of the reuse 2D avoids structurally",
		},
	}
	g := gen.MustLoad("rmat-s14-ef16")
	for _, p := range []int{4, 16, 64} {
		one, err := lcc.Run(g, baseEngineOptions(p))
		if err != nil {
			panic(err)
		}
		two, err := grid.Run(g, grid.Options{Ranks: p})
		if err != nil {
			panic(err)
		}
		if one.Triangles != two.Triangles {
			panic(fmt.Sprintf("experiments: 2D engine disagrees: %d vs %d", two.Triangles, one.Triangles))
		}
		var oneBytes, oneGets int64
		for _, s := range one.PerRank {
			if s.RMA.RemoteBytes > oneBytes {
				oneBytes = s.RMA.RemoteBytes
			}
			if s.RMA.Gets > oneGets {
				oneGets = s.RMA.Gets
			}
		}
		t.AddRow(p, ms(one.SimTime), ms(two.SimTime),
			fmt.Sprintf("%.2f", float64(oneBytes)/1e6),
			fmt.Sprintf("%.2f", float64(two.RemoteBytesMax)/1e6),
			oneGets, two.BlockFetches/int64(p))
	}
	return t
}

// AblationOrientation regenerates A5: merge work (ops per arc) of the
// edge-centric method vs the forward algorithm under degree and degeneracy
// orderings. Orientation bounds out-degrees by O(√m) (degree order) or by
// the graph's degeneracy, shrinking intersection work — the quantitative
// reason direction-optimized kernels win on scale-free graphs.
func AblationOrientation() *Table {
	t := &Table{
		ID:     "ablation-orientation",
		Title:  "Orientation ablation: merge ops per arc (A5)",
		Paper:  "Schank & Wagner (§V): forward does asymptotically less work than edge-iteration",
		Header: []string{"dataset", "edge-centric", "forward/degree", "forward/degeneracy", "max out-deg", "degeneracy"},
		Notes: []string{
			"ops = merge/search iterations per stored arc; smaller is better",
			"all three agree on the triangle count by construction (asserted)",
		},
	}
	for _, name := range []string{"rmat-s14-ef8", "rmat-s14-ef16", "lj-sim"} {
		g := gen.MustLoad(name)
		shared := lcc.SharedLCC(g, intersect.MethodHybrid)
		fwd, err := lcc.ForwardLCC(g)
		if err != nil {
			panic(err)
		}
		if fwd.Triangles != shared.Triangles {
			panic(fmt.Sprintf("experiments: forward disagrees on %s: %d vs %d",
				name, fwd.Triangles, shared.Triangles))
		}
		order, k, err := lcc.DegeneracyOrder(g)
		if err != nil {
			panic(err)
		}
		o, err := lcc.OrientByOrder(g, order)
		if err != nil {
			panic(err)
		}
		tris, degenOps := lcc.CountOriented(o)
		if tris != shared.Triangles {
			panic(fmt.Sprintf("experiments: degeneracy orientation disagrees on %s: %d vs %d",
				name, tris, shared.Triangles))
		}
		degOrient, err := lcc.Orient(g)
		if err != nil {
			panic(err)
		}
		arcs := float64(g.NumArcs())
		t.AddRow(name,
			fmt.Sprintf("%.1f", float64(shared.Ops)/arcs),
			fmt.Sprintf("%.1f", float64(fwd.Ops)/arcs),
			fmt.Sprintf("%.1f", float64(degenOps)/arcs),
			degOrient.MaxOutDegree(), k)
	}
	return t
}

// AblationPushPull regenerates A10: the push side of the push–pull
// dichotomy (§VI ii) against the paper's pull engine. Push discovers each
// triangle once (at the smallest corner's owner, walking only upper
// wedges) and ships the +1 contributions of the other two corners in one
// batched accumulate per peer; pull discovers each triangle three times but
// needs no write traffic and no synchronization. The table shows where
// each side wins: caching rescues pull exactly where reuse exists
// (scale-free), while push wins where there is nothing to cache
// (flat degree distributions) by halving the get traffic.
func AblationPushPull() *Table {
	t := &Table{
		ID:     "ablation-pushpull",
		Title:  "Push vs pull triangle counting on the same RMA substrate (A10)",
		Paper:  "§VI ii: 'graph problems … that can be expressed in a push-pull dichotomy'",
		Header: []string{"dataset", "ranks", "pull (ms)", "pull+cache (ms)", "push (ms)", "push/pull gets", "winner"},
		Notes: []string{
			"push = once-per-triangle discovery at the smallest corner + one combined accumulate per peer for the other two;",
			"one closing fence per rank (the only synchronization in any engine here)",
			"pull+cache uses the Fig. 7 C_adj budget (25% of the non-local partition)",
		},
	}
	for _, name := range pushPullGraphs {
		g := gen.MustLoad(name)
		for _, ranks := range pushPullRanks {
			pull, cached, push := pushPullRuns(g, ranks)
			times := map[string]float64{"pull": pull.SimTime, "pull+cache": cached.SimTime, "push": push.SimTime}
			winner := "pull"
			for k, v := range times {
				if v < times[winner] {
					winner = k
				}
			}
			t.AddRow(name, ranks, ms(pull.SimTime), ms(cached.SimTime), ms(push.SimTime),
				fmt.Sprintf("%.2f", float64(push.AggregateRMA().Gets)/float64(pull.AggregateRMA().Gets)), winner)
		}
	}
	return t
}

// A10's graphs and rank counts.
var (
	pushPullGraphs = []string{"rmat-s14-ef16", "uniform"}
	pushPullRanks  = []int{4, 16}
)

// pushPullRuns is one A10 row: g at ranks under the uncached pull engine,
// under pull with the Fig. 7 C_adj budget and degree scores, and under
// push. It panics unless all three count the same triangles.
func pushPullRuns(g *graph.Graph, ranks int) (pull, cached, push *lcc.Result) {
	pullOpt := baseEngineOptions(ranks)
	pull, err := lcc.Run(g, pullOpt)
	if err != nil {
		panic(err)
	}
	cachedOpt := pullOpt
	cachedOpt.Caching = true
	_, adjBytes := lcc.PaperCacheBytes(g.NumVertices())
	cachedOpt.OffsetsCacheBytes = 16 * g.NumVertices()
	cachedOpt.AdjCacheBytes = adjBytes / 4
	cachedOpt.AdjScorePolicy = lcc.ScoreDegree
	if cached, err = lcc.Run(g, cachedOpt); err != nil {
		panic(err)
	}
	if push, err = lcc.RunPush(g, pullOpt); err != nil {
		panic(err)
	}
	for _, r := range []*lcc.Result{cached, push} {
		if r.Triangles != pull.Triangles {
			panic(fmt.Sprintf("experiments: push/pull triangle mismatch: %d vs %d", r.Triangles, pull.Triangles))
		}
	}
	return pull, cached, push
}

// AblationRelabel regenerates A12: the paper's §II-B design decision made
// measurable. "If the input graph is stored in a degree-ordered format, we
// use a random relabeling to avoid assigning all the highest degree
// vertices to the same process." A Barabási–Albert graph is naturally
// degree-ordered (old vertices are hubs), so block 1D without relabeling
// piles the hubs — and their remote-read traffic — onto rank 0.
func AblationRelabel() *Table {
	t := &Table{
		ID:     "ablation-relabel",
		Title:  "A12: random relabeling vs degree-ordered ids under block 1D (16 ranks)",
		Paper:  "§II-B: random relabeling avoids assigning all the highest-degree vertices to the same process",
		Header: []string{"labeling", "sim time (ms)", "imbalance", "max/mean remote reads", "triangles"},
		Notes: []string{
			"graph: BA 2^14 vertices m=16, whose construction order is degree-ordered",
			"imbalance = max/mean arcs per rank; remote-read ratio = max/mean over ranks",
			"the relabeled run is the paper's default (gen.Prepare applies it to every dataset)",
		},
	}
	raw := graph.RemoveLowDegreeIter(gen.BarabasiAlbert(1<<14, 16, graph.Undirected, 99))
	labeled := gen.Prepare(raw, 99)

	var wantTri int64
	for _, cs := range []struct {
		name string
		g    *graph.Graph
	}{{"degree-ordered", raw}, {"random-relabeled", labeled}} {
		res, err := lcc.Run(cs.g, baseEngineOptions(16))
		if err != nil {
			panic(err)
		}
		if cs.name == "degree-ordered" {
			wantTri = res.Triangles
		} else if res.Triangles != wantTri {
			panic("relabeling changed the triangle count")
		}
		pt, err := part.Build(part.Block, cs.g, 16)
		if err != nil {
			panic(err)
		}
		var maxR, sumR int64
		for _, s := range res.PerRank {
			sumR += s.RemoteReads
			if s.RemoteReads > maxR {
				maxR = s.RemoteReads
			}
		}
		meanR := float64(sumR) / 16
		t.AddRow(cs.name, ms(res.SimTime), part.Imbalance(cs.g, pt),
			fmt.Sprintf("%.2f", float64(maxR)/meanR), res.Triangles)
	}
	return t
}
