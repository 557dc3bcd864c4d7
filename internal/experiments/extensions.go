package experiments

import (
	"fmt"

	"repro/internal/disttc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/rma"
	"repro/internal/tric"
)

// This file holds the extension experiments that go beyond the paper's own
// evaluation: the DistTC comparison the paper argues qualitatively (§I),
// the orientation ablation from the Schank–Wagner reference (§V), and the
// noise-sensitivity study that quantifies the asynchrony argument. Ids
// follow the DESIGN.md §3 index.

// AblationNoise regenerates A7: identical deterministic OS-style noise is
// injected into the asynchronous RMA engine and into the BSP TriC baseline
// via the shared cost model; the table reports each engine's slowdown
// relative to its own noise-free run. BSP pays the *maximum* perturbation
// across ranks at every barrier, the async engine only its own, so TriC's
// slowdown must grow faster with the noise level — the paper's §I argument
// made quantitative.
func AblationNoise() *Table {
	t := &Table{
		ID:     "ablation-noise",
		Title:  "Noise sensitivity: async RMA vs BSP TriC (A7)",
		Paper:  "§I: BSP synchronization 'as costly as communication'; asynchrony avoids straggler amplification",
		Header: []string{"noise", "async (ms)", "async slowdown", "tric (ms)", "tric slowdown", "bsp penalty"},
		Notes: []string{
			"noise: proportional jitter amplitude + 25 µs OS detours at the stated period, per rank, deterministic",
			"slowdowns are vs the same engine without noise; bsp penalty = tric slowdown / async slowdown",
			"dataset rmat-s14-ef16 on 8 ranks (the asymmetry is scale-independent; kept small for the bench budget)",
		},
	}
	g := gen.MustLoad("rmat-s14-ef16")
	const ranks = 8
	levels := []struct {
		name string
		spec rma.NoiseSpec
	}{
		{"off", rma.NoiseSpec{}},
		{"low (5%, 1ms period)", rma.NoiseSpec{Amp: 0.05, SpikePeriodNS: 1e6, SpikeNS: 25000, Seed: 1}},
		{"high (30%, 50µs)", rma.NoiseSpec{Amp: 0.30, SpikePeriodNS: 50e3, SpikeNS: 25000, Seed: 1}},
	}
	var asyncBase, tricBase float64
	for i, lv := range levels {
		model := rma.DefaultCostModel()
		model.Noise = lv.spec

		opt := baseEngineOptions(ranks)
		opt.Model = model
		async, err := lcc.Run(g, opt)
		if err != nil {
			panic(err)
		}
		tr := tric.MustRun(g, tric.Options{Ranks: ranks, Model: model, Method: intersect.MethodHybrid})
		if i == 0 {
			asyncBase, tricBase = async.SimTime, tr.SimTime
		}
		aSlow := async.SimTime / asyncBase
		tSlow := tr.SimTime / tricBase
		t.AddRow(lv.name, ms(async.SimTime), fmt.Sprintf("%.2fx", aSlow),
			ms(tr.SimTime), fmt.Sprintf("%.2fx", tSlow), fmt.Sprintf("%.2f", tSlow/aSlow))
	}
	return t
}

// AblationDistTC regenerates A8: the DistTC shadow-edge baseline against
// the asynchronous engine and TriC over a strong-scaling sweep. The paper
// (§I) credits DistTC with low computation time but a total dominated by
// precomputation; the precompute share and the shadow replication factor
// make that visible.
func AblationDistTC() *Table {
	t := &Table{
		ID:     "ablation-disttc",
		Title:  "DistTC shadow-edge baseline vs async RMA and TriC (A8)",
		Paper:  "§I: DistTC 'leads to a low computation time but makes the total running time dominated by this pre-computation step'",
		Header: []string{"ranks", "async (ms)", "tric (ms)", "disttc (ms)", "disttc precompute", "replication"},
		Notes: []string{
			"dataset rmat-s14-ef16 (undirected scale-free); disttc precompute = share of its total time",
			"replication = (local+shadow arcs)/local arcs over all ranks",
			"absolute times are not the story: disttc's bulk shadow transfer amortizes latency, but its",
			"replication factor is the graph fraction every rank must hold — at paper scale that is the",
			"out-of-memory failure mode, and the growing precompute share is the scalability ceiling (§I)",
		},
	}
	g := gen.MustLoad("rmat-s14-ef16")
	for _, ranks := range []int{4, 8, 16, 32} {
		async, err := lcc.Run(g, baseEngineOptions(ranks))
		if err != nil {
			panic(err)
		}
		tr := tric.MustRun(g, tric.Options{Ranks: ranks, Method: intersect.MethodHybrid})
		dt := disttc.MustRun(g, disttc.Options{Ranks: ranks})
		if dt.Triangles != async.Triangles {
			panic(fmt.Sprintf("experiments: DistTC disagrees on triangles: %d vs %d",
				dt.Triangles, async.Triangles))
		}
		t.AddRow(ranks, ms(async.SimTime), ms(tr.SimTime), ms(dt.SimTime),
			fmt.Sprintf("%.0f%%", 100*dt.PrecomputeTime/dt.SimTime),
			fmt.Sprintf("%.2fx", dt.ReplicationFactor))
	}
	return t
}

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
// wedges) and scatters +1 contributions to the other two corners through
// one-sided accumulates; pull discovers each triangle three times but
// needs no write traffic and no synchronization. The table shows where
// each side wins: caching rescues pull exactly where reuse exists
// (scale-free), while batched push wins where there is nothing to cache
// (flat degree distributions) by halving the get traffic.
func AblationPushPull() *Table {
	t := &Table{
		ID:     "ablation-pushpull",
		Title:  "Push vs pull triangle counting on the same RMA substrate (A10)",
		Paper:  "§VI ii: 'graph problems … that can be expressed in a push-pull dichotomy'",
		Header: []string{"dataset", "ranks", "pull (ms)", "pull+cache (ms)", "push direct (ms)", "push batched (ms)", "push/pull gets", "winner"},
		Notes: []string{
			"push = once-per-triangle discovery at the smallest corner + one-sided accumulates to the other two;",
			"one closing fence per rank (the only synchronization in any engine here)",
			"direct = one 8-byte accumulate per remote corner; batched = local combining, one message per peer",
			"pull+cache uses the Fig. 7 C_adj budget (25% of the non-local partition)",
		},
	}
	for _, name := range []string{"rmat-s14-ef16", "uniform"} {
		g := gen.MustLoad(name)
		for _, ranks := range []int{4, 16} {
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
			cached, err := lcc.Run(g, cachedOpt)
			if err != nil {
				panic(err)
			}
			direct, err := lcc.RunPush(g, lcc.PushOptions{Options: pullOpt, Aggregation: lcc.PushDirect})
			if err != nil {
				panic(err)
			}
			batched, err := lcc.RunPush(g, lcc.PushOptions{Options: pullOpt, Aggregation: lcc.PushBatched})
			if err != nil {
				panic(err)
			}
			for _, r := range []*lcc.Result{cached, direct, batched} {
				if r.Triangles != pull.Triangles {
					panic(fmt.Sprintf("experiments: push/pull triangle mismatch on %s: %d vs %d",
						name, r.Triangles, pull.Triangles))
				}
			}
			pullGets := pull.AggregateRMA().Gets
			pushGets := batched.AggregateRMA().Gets
			times := map[string]float64{
				"pull": pull.SimTime, "pull+cache": cached.SimTime,
				"push direct": direct.SimTime, "push batched": batched.SimTime,
			}
			winner := "pull"
			for k, v := range times {
				if v < times[winner] {
					winner = k
				}
			}
			t.AddRow(name, ranks, ms(pull.SimTime), ms(cached.SimTime),
				ms(direct.SimTime), ms(batched.SimTime),
				fmt.Sprintf("%.2f", float64(pushGets)/float64(pullGets)), winner)
		}
	}
	return t
}

// AblationDelegation regenerates A11: static vertex delegation against
// dynamic CLaMPI caching under the same per-rank memory budget. The
// abstract frames the paper's contribution as "achieving vertex delegation
// by a caching mechanism"; this table quantifies that claim. Delegation
// gets oracle degree knowledge and free replication (excluded from timing,
// like the paper's distribution phase), yet dynamic caching tracks it
// closely wherever reuse is skewed — and only the cache adapts to what a
// rank actually touches.
func AblationDelegation() *Table {
	t := &Table{
		ID:     "ablation-delegation",
		Title:  "Static vertex delegation vs dynamic RMA caching (A11)",
		Paper:  "abstract: 'achieving vertex delegation by a caching mechanism leads to clear performance improvements'",
		Header: []string{"ranks", "budget", "plain (ms)", "cached (ms)", "hit rate", "delegated (ms)", "deleg share", "both (ms)"},
		Notes: []string{
			"budget = per-rank bytes, 25% of the mean non-local partition (the Fig. 8 eviction-pressure setup);",
			"the same budget funds C_adj for 'cached' and the static replica for 'delegated'; 'both' splits it half/half",
			"deleg share = fraction of would-be remote reads served by the replica",
			"delegation picks by global in-degree (an oracle); caching discovers the working set at runtime",
		},
	}
	g := gen.MustLoad(fig7Dataset)
	csr := int(g.CSRSizeBytes())
	for _, ranks := range []int{4, 8, 16, 32, 64} {
		nonLocal := csr - csr/ranks
		budget := nonLocal / 4

		plain, err := lcc.Run(g, baseEngineOptions(ranks))
		if err != nil {
			panic(err)
		}

		cachedOpt := baseEngineOptions(ranks)
		cachedOpt.Caching = true
		cachedOpt.OffsetsCacheBytes = 16 * g.NumVertices()
		cachedOpt.AdjCacheBytes = budget
		cachedOpt.AdjScorePolicy = lcc.ScoreDegree
		cached, err := lcc.Run(g, cachedOpt)
		if err != nil {
			panic(err)
		}

		delegOpt := baseEngineOptions(ranks)
		delegOpt.DelegateBytes = budget
		deleg, err := lcc.Run(g, delegOpt)
		if err != nil {
			panic(err)
		}

		bothOpt := cachedOpt
		bothOpt.AdjCacheBytes = budget / 2
		bothOpt.DelegateBytes = budget / 2
		both, err := lcc.Run(g, bothOpt)
		if err != nil {
			panic(err)
		}

		for _, r := range []*lcc.Result{cached, deleg, both} {
			if r.Triangles != plain.Triangles {
				panic(fmt.Sprintf("experiments: delegation ablation triangle mismatch: %d vs %d",
					r.Triangles, plain.Triangles))
			}
		}

		var plainRemote, delegated int64
		for i := 0; i < ranks; i++ {
			plainRemote += plain.PerRank[i].RemoteReads
			delegated += deleg.PerRank[i].DelegatedReads
		}
		t.AddRow(ranks, fmtBytes(int64(budget)), ms(plain.SimTime),
			ms(cached.SimTime), fmt.Sprintf("%.0f%%", 100*cached.HitRate()),
			ms(deleg.SimTime), fmt.Sprintf("%.0f%%", 100*float64(delegated)/float64(plainRemote)),
			ms(both.SimTime))
	}
	return t
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

// AblationReplication regenerates A13 — future-work direction (i) again,
// from the memory side: replicated-groups "1.5D" distribution, the 2.5D
// matmul idea [41] applied to the paper's 1D scheme. c graph copies form c
// groups of p/c ranks; each fetch then sees a coarser 1/(p/c) partition, so
// the remote-read fraction falls while per-rank window memory grows by c.
func AblationReplication() *Table {
	t := &Table{
		ID:     "ablation-replication",
		Title:  "Replicated-groups (1.5D) distribution at fixed p=16 (A13)",
		Paper:  "§VI i: 'distribution schema that have lower communication costs than 1D distribution' [41]",
		Header: []string{"c", "groups x slots", "time (ms)", "speedup", "remote frac", "window MB/rank", "memory cost"},
		Notes: []string{
			"c = graph copies; at c=1 this is exactly the paper's 1D engine layout",
			"remote frac ~ (q-1)/q with q = p/c: coarser partitions mean fewer remote reads",
			"window MB/rank is the replicated CSR each rank must hold - the 2.5D memory-for-communication trade",
			"every configuration returns bit-identical LCC scores (asserted)",
		},
	}
	g := gen.MustLoad(fig7Dataset)
	const p = 16
	base, err := lcc.Run(g, baseEngineOptions(p))
	if err != nil {
		panic(err)
	}
	for _, c := range []int{1, 2, 4, 8} {
		opt := baseEngineOptions(p)
		res, err := lcc.RunReplicated(g, lcc.ReplicatedOptions{Options: opt, Replication: c})
		if err != nil {
			panic(err)
		}
		if res.Triangles != base.Triangles {
			panic(fmt.Sprintf("experiments: replication c=%d changed triangles: %d vs %d",
				c, res.Triangles, base.Triangles))
		}
		mem, err := lcc.ReplicaWindowBytes(g, p, c)
		if err != nil {
			panic(err)
		}
		mem1, _ := lcc.ReplicaWindowBytes(g, p, 1)
		t.AddRow(c, fmt.Sprintf("%dx%d", c, p/c), ms(res.SimTime),
			fmt.Sprintf("%.2fx", base.SimTime/res.SimTime),
			fmt.Sprintf("%.0f%%", 100*res.RemoteReadFraction()),
			fmt.Sprintf("%.2f", float64(mem)/1e6),
			fmt.Sprintf("%.1fx", float64(mem)/float64(mem1)))
	}
	return t
}
