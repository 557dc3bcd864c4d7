package lcc

import (
	"testing"

	"repro/internal/clampi"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/rma"
)

func TestEngineEmptyGraph(t *testing.T) {
	g := graph.MustBuild(graph.Undirected, 0, nil)
	res, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 0 || len(res.LCC) != 0 {
		t.Errorf("empty graph: %+v", res)
	}
}

func TestEngineEdgelessVertices(t *testing.T) {
	// Vertices with no edges at all: every rank owns some, none crash.
	g := graph.MustBuild(graph.Undirected, 16, []graph.Edge{{Src: 0, Dst: 15}})
	res, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 0 {
		t.Errorf("Triangles = %d", res.Triangles)
	}
	for v, c := range res.LCC {
		if c != 0 {
			t.Errorf("LCC[%d] = %v, want 0", v, c)
		}
	}
}

func TestEngineMoreRanksThanVertices(t *testing.T) {
	g := graph.MustBuild(graph.Undirected, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	res, err := Run(g, Options{Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Errorf("Triangles = %d, want 1 (ranks with empty partitions must be harmless)", res.Triangles)
	}
}

func TestEngineDirectedZeroOutDegree(t *testing.T) {
	// Vertex 2 has in-degree 2 but out-degree 0: its (empty) adjacency
	// list is still fetched remotely by others without error.
	g := graph.MustBuild(graph.Directed, 4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0},
	})
	want := SharedLCC(g, intersect.MethodHybrid)
	for _, caching := range []bool{false, true} {
		opt := Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true, Caching: caching}
		if caching {
			opt.OffsetsCacheBytes = 1 << 10
			opt.AdjCacheBytes = 1 << 12
		}
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("caching=%v: Triangles = %d, want %d", caching, res.Triangles, want.Triangles)
		}
	}
}

func TestEngineStarGraph(t *testing.T) {
	// Star: hub 0 with 63 leaves, no triangles; all remote reads target
	// the hub's long list — the degenerate reuse case.
	edges := make([]graph.Edge, 63)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.V(i + 1)}
	}
	g := graph.MustBuild(graph.Undirected, 64, edges)
	res, err := Run(g, Options{
		Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: 1 << 10, AdjCacheBytes: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 0 {
		t.Errorf("star Triangles = %d", res.Triangles)
	}
	// Every leaf outside rank 0 reads the hub's list: hit rate should be
	// high once cached.
	var hits int64
	for _, s := range res.PerRank {
		hits += s.AdjCache.Hits
	}
	if hits == 0 {
		t.Error("no cache hits on star hub reuse")
	}
}

func TestEngineTinyCachesNeverWrong(t *testing.T) {
	// Pathologically small caches (a few bytes) must never change the
	// result, only the time.
	g := randomSimpleGraph(graph.Undirected, 60, 400, 5)
	want := SharedLCC(g, intersect.MethodHybrid)
	res, err := Run(g, Options{
		Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: 8, AdjCacheBytes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want.Triangles {
		t.Errorf("tiny caches broke the count: %d vs %d", res.Triangles, want.Triangles)
	}
}

func TestEngineSumTAdditivity(t *testing.T) {
	// SumT must equal the sum of per-vertex counts from the reference.
	g := randomSimpleGraph(graph.Undirected, 100, 700, 6)
	ref := SharedLCC(g, intersect.MethodHybrid)
	var want int64
	for _, t := range ref.PerVertex {
		want += t
	}
	res, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SumT != want {
		t.Errorf("SumT = %d, want %d", res.SumT, want)
	}
}

func TestEngineDeterministicSimTime(t *testing.T) {
	// The whole point of modeled time: identical runs give identical
	// simulated clocks, regardless of goroutine scheduling.
	g := randomSimpleGraph(graph.Undirected, 200, 1500, 7)
	opt := Options{
		Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: 1 << 12, AdjCacheBytes: 1 << 14,
	}
	a, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime {
		t.Errorf("sim time not deterministic: %v vs %v", a.SimTime, b.SimTime)
	}
	for i := range a.PerRank {
		if a.PerRank[i].SimTime != b.PerRank[i].SimTime {
			t.Errorf("rank %d clock differs between runs", i)
		}
	}
}

func TestEngineCustomModelPropagates(t *testing.T) {
	g := randomSimpleGraph(graph.Undirected, 100, 600, 8)
	m := rma.DefaultCostModel()
	m.RemoteLatency = 50000 // brutally slow network
	slow, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if slow.SimTime <= fast.SimTime {
		t.Errorf("25x slower network did not increase sim time (%v vs %v)", slow.SimTime, fast.SimTime)
	}
}

func TestOptionsBucketSizing(t *testing.T) {
	// §III-B-1 sizing of the configurations newWorker builds for a graph of
	// 1000 vertices: C_offsets buckets linear in capacity; C_adj buckets
	// n·f² for a cache holding share f of ~32 B a vertex (α=2).
	for _, tc := range []struct {
		offBytes, adjBytes     int
		offBuckets, adjBuckets int
	}{
		{16000, 32000, 1000, 1000}, // f = 1
		{16, 1 << 30, 1, 1000},     // f capped at 1
		{160, 8000, 10, 62},        // f = 1/4
	} {
		off, adj := cacheConfigs(1000, Options{Caching: true, OffsetsCacheBytes: tc.offBytes, AdjCacheBytes: tc.adjBytes})
		if off != (clampi.Config{Capacity: tc.offBytes, Buckets: tc.offBuckets}) {
			t.Errorf("C_offsets for %d bytes: %+v, want %d buckets", tc.offBytes, off, tc.offBuckets)
		}
		if adj != (clampi.Config{Capacity: tc.adjBytes, Buckets: tc.adjBuckets}) {
			t.Errorf("C_adj for %d bytes: %+v, want %d buckets", tc.adjBytes, adj, tc.adjBuckets)
		}
	}
}
