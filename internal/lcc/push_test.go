package lcc

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
)

// pushTestGraphs returns a spread of small undirected graphs: the Fig. 1
// toy, a scale-free R-MAT, a flat Erdős–Rényi, and a hub-heavy
// Barabási–Albert — the degree-distribution extremes the push/pull trade
// depends on.
func pushTestGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"fig1": fig1Graph(),
		"rmat": gen.Prepare(gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 7)), 7),
		"er":   gen.Prepare(gen.ErdosRenyi(1<<9, 1<<12, graph.Undirected, 11), 11),
		"ba":   gen.Prepare(gen.BarabasiAlbert(1<<9, 8, graph.Undirected, 13), 13),
	}
}

// TestPushEqualsPull is the central correctness claim: the push engine
// computes bit-identical LCC scores and triangle counts to the pull engine
// (Algorithm 3), for every rank count and cache setting.
func TestPushEqualsPull(t *testing.T) {
	for name, g := range pushTestGraphs(t) {
		pull, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
		if err != nil {
			t.Fatalf("%s: pull: %v", name, err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			for _, caching := range []bool{false, true} {
				opt := Options{Ranks: ranks, Method: intersect.MethodHybrid, DoubleBuffer: true}
				if caching {
					opt.Caching = true
					opt.OffsetsCacheBytes = 1 << 14
					opt.AdjCacheBytes = 1 << 16
				}
				push, err := RunPush(g, opt)
				if err != nil {
					t.Fatalf("%s: push ranks=%d: %v", name, ranks, err)
				}
				if !lccClose(push.LCC, pull.LCC) {
					t.Errorf("%s: push ranks=%d caching=%v: LCC differs from pull", name, ranks, caching)
				}
				if push.Triangles != pull.Triangles {
					t.Errorf("%s: push ranks=%d: Triangles = %d, want %d", name, ranks, push.Triangles, pull.Triangles)
				}
				if push.SumT != pull.SumT {
					t.Errorf("%s: push ranks=%d: SumT = %d, want %d", name, ranks, push.SumT, pull.SumT)
				}
			}
		}
	}
}

func TestPushMatchesSharedReference(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 3)), 3)
	ref := SharedLCC(g, intersect.MethodHybrid)
	push, err := RunPush(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if push.Triangles != ref.Triangles {
		t.Errorf("Triangles = %d, want %d", push.Triangles, ref.Triangles)
	}
	if !lccClose(push.LCC, ref.LCC) {
		t.Error("push LCC differs from shared-memory reference")
	}
}

func TestPushRejectsDirected(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(8, 8, graph.Directed, 5)), 5)
	if _, err := RunPush(g, Options{Ranks: 2}); err == nil {
		t.Fatal("RunPush on a directed graph: want error, got nil")
	}
}

func TestPushRejectsBadRanks(t *testing.T) {
	g := fig1Graph()
	if _, err := RunPush(g, Options{Ranks: -3}); err == nil {
		t.Fatal("RunPush with negative ranks: want error, got nil")
	}
}

// TestPushBatchedFewerMessages verifies the aggregation claim: on a
// triangle-dense graph, local combining ships at most one write per peer
// per rank, far fewer than the two contributions each triangle owes.
func TestPushBatchedFewerMessages(t *testing.T) {
	g := gen.Prepare(gen.BarabasiAlbert(1<<10, 12, graph.Undirected, 21), 21)
	const ranks = 8
	res, err := RunPush(g, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	var puts int64
	for i := 0; i < ranks; i++ {
		puts += res.PerRank[i].RMA.Puts
		if got := res.PerRank[i].RMA.Puts; got > ranks-1 {
			t.Errorf("rank %d: puts = %d, want <= %d", i, got, ranks-1)
		}
	}
	if 100*puts > res.Triangles {
		t.Errorf("%d puts for %d triangles: want under one per hundred triangles", puts, res.Triangles)
	}
}

// TestPushHalvesPullTraffic verifies the wedge-filter claim: push fetches
// only neighbours v_j > v_i, so its adjacency gets are strictly fewer than
// pull's on any graph with triangles.
func TestPushHalvesPullTraffic(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 17)), 17)
	const ranks = 4
	pull, err := Run(g, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	push, err := RunPush(g, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	var pullReads, pushReads int64
	for i := 0; i < ranks; i++ {
		pullReads += pull.PerRank[i].RemoteReads
		pushReads += push.PerRank[i].RemoteReads
	}
	if pushReads >= pullReads {
		t.Errorf("push remote reads = %d, pull = %d: want push < pull", pushReads, pullReads)
	}
	// The split is close to half: each undirected edge appears in both
	// endpoints' lists, and exactly one of the two satisfies v_j > v_i.
	if ratio := float64(pushReads) / float64(pullReads); ratio > 0.75 {
		t.Errorf("push/pull read ratio = %.2f, want about 0.5", ratio)
	}
}

// TestPushQuickER is the property-based check: for random Erdős–Rényi
// parameters, push and pull agree exactly.
func TestPushQuickER(t *testing.T) {
	f := func(seed uint64, nBits, mBits uint8) bool {
		n := 1 << (4 + nBits%5) // 16..256 vertices
		m := 1 << (5 + mBits%5) // 32..512 edges
		g := gen.Prepare(gen.ErdosRenyi(n, m, graph.Undirected, seed), seed)
		pull, err := Run(g, Options{Ranks: 4})
		if err != nil {
			return false
		}
		push, err := RunPush(g, Options{Ranks: 4})
		if err != nil {
			return false
		}
		return lccClose(push.LCC, pull.LCC) && push.Triangles == pull.Triangles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPushSingleRankNoRemoteTraffic: with p=1 everything is local — no
// gets, no puts, and the fence costs only the barrier latency.
func TestPushSingleRankNoRemoteTraffic(t *testing.T) {
	g := gen.Prepare(gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 9)), 9)
	res, err := RunPush(g, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerRank[0]
	if s.RMA.Gets != 0 || s.RemoteReads != 0 {
		t.Errorf("remote gets = %d, remote reads = %d, want 0", s.RMA.Gets, s.RemoteReads)
	}
	if s.RMA.Puts != 0 {
		t.Errorf("single rank: puts = %d, want 0 (self-batches are local)", s.RMA.Puts)
	}
}

// TestPushBalancedAcrossRanks guards the hashed discovery order: the
// halved wedge work must spread evenly over ranks, not pool on the rank
// owning the lowest vertex ids (which is what a raw-id order would do).
func TestPushBalancedAcrossRanks(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(1<<12, 1<<15, graph.Undirected, 33), 33)
	const ranks = 8
	res, err := RunPush(g, Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	var total, max int64
	for i := 0; i < ranks; i++ {
		r := res.PerRank[i].RemoteReads
		total += r
		if r > max {
			max = r
		}
	}
	mean := float64(total) / ranks
	if float64(max) > 1.5*mean {
		t.Errorf("max per-rank remote reads %d > 1.5x mean %.0f: discovery order is unbalanced", max, mean)
	}
}

// TestPushFasterThanPullOnFlatGraph pins the headline speedup: on a
// uniform-degree graph (nothing for a cache to reuse) batched push should
// run in about half of pull's time, since it walks half the wedges with
// balanced ownership.
func TestPushFasterThanPullOnFlatGraph(t *testing.T) {
	g := gen.Prepare(gen.ErdosRenyi(1<<12, 1<<16, graph.Undirected, 41), 41)
	const ranks = 8
	pull, err := Run(g, Options{Ranks: ranks, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	push, err := RunPush(g, Options{Ranks: ranks, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := push.SimTime / pull.SimTime; ratio > 0.7 {
		t.Errorf("push/pull time ratio = %.2f, want about 0.5 (< 0.7)", ratio)
	}
}

func TestPushEmptyAndDegenerateGraphs(t *testing.T) {
	empty := graph.MustBuild(graph.Undirected, 0, nil)
	res, err := RunPush(empty, Options{Ranks: 1})
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if res.Triangles != 0 || len(res.LCC) != 0 {
		t.Errorf("empty graph: triangles=%d len(LCC)=%d", res.Triangles, len(res.LCC))
	}

	// Edgeless vertices: no wedges, no triangles, LCC all zero.
	lone := graph.MustBuild(graph.Undirected, 8, []graph.Edge{{Src: 0, Dst: 1}})
	res, err = RunPush(lone, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 0 {
		t.Errorf("single-edge graph has %d triangles", res.Triangles)
	}
	for v, c := range res.LCC {
		if c != 0 {
			t.Errorf("LCC[%d] = %v, want 0", v, c)
		}
	}
}

func TestPushMoreRanksThanVertices(t *testing.T) {
	g := fig1Graph() // 6 vertices
	res, err := RunPush(g, Options{Ranks: 6})
	if err != nil {
		t.Fatal(err)
	}
	pull, _ := Run(g, Options{Ranks: 1})
	if !lccClose(res.LCC, pull.LCC) {
		t.Error("one-vertex-per-rank push differs from reference")
	}
}
