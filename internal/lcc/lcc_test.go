package lcc

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
)

// fig1Graph is the toy graph of Fig. 1 (left): two triangles sharing
// structure across the A/B partition boundary.
func fig1Graph() *graph.Graph {
	return graph.MustBuild(graph.Undirected, 6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 4}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5},
	})
}

func lccClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestScore(t *testing.T) {
	if got := Score(graph.Undirected, 1, 2); got != 1.0 {
		t.Errorf("undirected Score(1,2) = %v, want 1", got)
	}
	if got := Score(graph.Undirected, 3, 4); got != 0.5 {
		t.Errorf("undirected Score(3,4) = %v, want 0.5", got)
	}
	if got := Score(graph.Directed, 6, 3); got != 1.0 {
		t.Errorf("directed Score(6,3) = %v, want 1", got)
	}
	if got := Score(graph.Undirected, 0, 1); got != 0 {
		t.Errorf("degree<2 Score = %v, want 0", got)
	}
}

func TestSharedLCCKnownGraph(t *testing.T) {
	// Triangle graph: every vertex has LCC 1.
	tri := graph.MustBuild(graph.Undirected, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	res := SharedLCC(tri, intersect.MethodHybrid)
	for v, c := range res.LCC {
		if c != 1.0 {
			t.Errorf("triangle LCC[%d] = %v, want 1", v, c)
		}
	}
	if res.Triangles != 1 {
		t.Errorf("Triangles = %d, want 1", res.Triangles)
	}

	// Square (4-cycle): no triangles, all LCC 0.
	sq := graph.MustBuild(graph.Undirected, 4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	res = SharedLCC(sq, intersect.MethodHybrid)
	for v, c := range res.LCC {
		if c != 0 {
			t.Errorf("square LCC[%d] = %v, want 0", v, c)
		}
	}
	if res.Triangles != 0 {
		t.Errorf("Triangles = %d, want 0", res.Triangles)
	}

	// Complete graph K5: every LCC 1, C(5,3)=10 triangles.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{Src: graph.V(i), Dst: graph.V(j)})
		}
	}
	k5 := graph.MustBuild(graph.Undirected, 5, edges)
	res = SharedLCC(k5, intersect.MethodHybrid)
	for v, c := range res.LCC {
		if c != 1.0 {
			t.Errorf("K5 LCC[%d] = %v, want 1", v, c)
		}
	}
	if res.Triangles != 10 {
		t.Errorf("K5 Triangles = %d, want 10", res.Triangles)
	}
}

func TestSharedLCCFig1Graph(t *testing.T) {
	g := fig1Graph()
	res := SharedLCC(g, intersect.MethodHybrid)
	// Triangles: {0,1,2}, {1,2,4}... check: edges 0-1,0-2,1-2 -> yes;
	// 1-2,1-4,2-4 -> yes; 1-3,1-4,3-4 -> yes. Total 3.
	if res.Triangles != 3 {
		t.Errorf("Triangles = %d, want 3", res.Triangles)
	}
	// Vertex 0: neighbours {1,2}, edge 1-2 exists: LCC = 2*1/(2*1) = 1.
	if res.LCC[0] != 1.0 {
		t.Errorf("LCC[0] = %v, want 1", res.LCC[0])
	}
	// Vertex 5: single neighbour, LCC 0.
	if res.LCC[5] != 0 {
		t.Errorf("LCC[5] = %v, want 0", res.LCC[5])
	}
	// Vertex 1: neighbours {0,2,3,4}, edges among them: 0-2, 2-4, 3-4 ->
	// LCC = 2*3/(4*3) = 0.5.
	if res.LCC[1] != 0.5 {
		t.Errorf("LCC[1] = %v, want 0.5", res.LCC[1])
	}
}

func TestSharedMatchesBruteForce(t *testing.T) {
	for _, kind := range []graph.Kind{graph.Undirected, graph.Directed} {
		for seed := uint64(1); seed <= 5; seed++ {
			g := randomSimpleGraph(kind, 80, 400, seed)
			want := BruteForceLCC(g)
			for _, m := range []intersect.Method{intersect.MethodSSI, intersect.MethodBinary, intersect.MethodHybrid} {
				got := SharedLCC(g, m)
				if got.Triangles != want.Triangles {
					t.Errorf("%v seed %d method %v: Triangles = %d, want %d",
						kind, seed, m, got.Triangles, want.Triangles)
				}
				if !lccClose(got.LCC, want.LCC) {
					t.Errorf("%v seed %d method %v: LCC mismatch", kind, seed, m)
				}
			}
		}
	}
}

func TestSharedParallelMatchesSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 42))
	want := SharedLCC(g, intersect.MethodHybrid)
	got := SharedLCCParallel(g, intersect.MethodHybrid, intersect.ParallelConfig{Threads: 4, Cutoff: 64})
	if got.Triangles != want.Triangles {
		t.Errorf("parallel Triangles = %d, want %d", got.Triangles, want.Triangles)
	}
	if !lccClose(got.LCC, want.LCC) {
		t.Error("parallel LCC differs from sequential")
	}
}

func randomSimpleGraph(kind graph.Kind, n, m int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed*7+1))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.V(rng.IntN(n)), Dst: graph.V(rng.IntN(n))}
	}
	return graph.MustBuild(kind, n, edges)
}

// --- distributed engine --------------------------------------------------

func TestDistributedMatchesSharedAllConfigs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"fig1":       fig1Graph(),
		"undirected": randomSimpleGraph(graph.Undirected, 120, 900, 3),
		"directed":   randomSimpleGraph(graph.Directed, 120, 900, 4),
		"rmat":       gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 5)),
	}
	for name, g := range graphs {
		want := SharedLCC(g, intersect.MethodHybrid)
		for _, ranks := range []int{1, 2, 4, 7} {
			for _, caching := range []bool{false, true} {
				for _, db := range []bool{false, true} {
					opt := Options{
						Ranks:        ranks,
						Method:       intersect.MethodHybrid,
						Caching:      caching,
						DoubleBuffer: db,
					}
					if caching {
						opt.OffsetsCacheBytes = 1 << 14
						opt.AdjCacheBytes = 1 << 16
					}
					got, err := Run(g, opt)
					if err != nil {
						t.Fatalf("%s p=%d caching=%v db=%v: %v", name, ranks, caching, db, err)
					}
					if got.Triangles != want.Triangles {
						t.Errorf("%s p=%d caching=%v db=%v: Triangles = %d, want %d",
							name, ranks, caching, db, got.Triangles, want.Triangles)
					}
					if !lccClose(got.LCC, want.LCC) {
						t.Errorf("%s p=%d caching=%v db=%v: LCC mismatch", name, ranks, caching, db)
					}
				}
			}
		}
	}
}

func TestDistributedCyclicScheme(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 6))
	want := SharedLCC(g, intersect.MethodHybrid)
	got, err := Run(g, Options{Ranks: 4, Scheme: part.Cyclic, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles {
		t.Errorf("cyclic Triangles = %d, want %d", got.Triangles, want.Triangles)
	}
	if !lccClose(got.LCC, want.LCC) {
		t.Error("cyclic LCC mismatch")
	}
}

func TestDistributedDegreeScores(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 7))
	want := SharedLCC(g, intersect.MethodHybrid)
	got, err := Run(g, Options{
		Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: 1 << 13, AdjCacheBytes: 1 << 14,
		AdjScorePolicy: ScoreDegree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles {
		t.Errorf("degree-score Triangles = %d, want %d", got.Triangles, want.Triangles)
	}
}

func TestCachingReducesSimTime(t *testing.T) {
	// A power-law graph with plenty of reuse: the cached run must be
	// faster and must register cache hits (§IV-D-1).
	g := gen.RMAT(gen.DefaultRMAT(11, 16, graph.Undirected, 8))
	base := Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true}
	plain, err := Run(g, base)
	if err != nil {
		t.Fatal(err)
	}
	withCache := base
	withCache.Caching = true
	withCache.OffsetsCacheBytes = 1 << 20
	withCache.AdjCacheBytes = 1 << 22
	cached, err := Run(g, withCache)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Triangles != plain.Triangles {
		t.Fatalf("caching changed the result: %d vs %d", cached.Triangles, plain.Triangles)
	}
	if cached.SimTime >= plain.SimTime {
		t.Errorf("cached run (%.2fms) not faster than non-cached (%.2fms)",
			cached.SimTime/1e6, plain.SimTime/1e6)
	}
	var hits int64
	for _, s := range cached.PerRank {
		hits += s.AdjCache.Hits + s.OffsetsCache.Hits
	}
	if hits == 0 {
		t.Error("large cache recorded zero hits on a power-law graph")
	}
}

func TestDoubleBufferingHelps(t *testing.T) {
	// Overlap must never hurt, and on remote-heavy runs it should help.
	g := gen.RMAT(gen.DefaultRMAT(10, 16, graph.Undirected, 9))
	on, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: false})
	if err != nil {
		t.Fatal(err)
	}
	if on.Triangles != off.Triangles {
		t.Fatalf("double buffering changed the result")
	}
	if on.SimTime > off.SimTime*1.001 {
		t.Errorf("double buffering slowed the run: %.2fms vs %.2fms", on.SimTime/1e6, off.SimTime/1e6)
	}
}

func TestRemoteReadFractionGrowsWithRanks(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 10))
	prev := -1.0
	for _, p := range []int{2, 4, 8, 16} {
		res, err := Run(g, Options{Ranks: p, Method: intersect.MethodHybrid, DoubleBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		frac := res.RemoteReadFraction()
		if frac < prev {
			t.Errorf("remote fraction decreased from %.3f to %.3f at p=%d", prev, frac, p)
		}
		prev = frac
	}
	if prev < 0.5 {
		t.Errorf("remote fraction at p=16 = %.2f, want high (paper: up to 0.98)", prev)
	}
}

func TestCommDominatesAtScale(t *testing.T) {
	// §IV-D-2: communication dominates total running time as p grows.
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 11))
	res, err := Run(g, Options{Ranks: 16, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if cf := res.CommFraction(); cf < 0.5 {
		t.Errorf("comm fraction at p=16 = %.2f, want dominant", cf)
	}
}

func TestOnRemoteReadHook(t *testing.T) {
	g := fig1Graph()
	events := make([][]graph.V, 2)
	_, err := Run(g, Options{
		Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true,
		OnRemoteRead: func(rank int, v graph.V) { events[rank] = append(events[rank], v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node A (vertices 0-2) must have read vertex 4 remotely (Fig. 1:
	// computing LCC(1) and LCC(2) requires adj(4) twice).
	count4 := 0
	for _, v := range events[0] {
		if v == 4 {
			count4++
		}
	}
	if count4 < 2 {
		t.Errorf("rank 0 read vertex 4 %d times, want >= 2 (Fig. 1 data reuse)", count4)
	}
	for r, evs := range events {
		for _, v := range evs {
			owner := 0
			if v >= 3 {
				owner = 1
			}
			if owner == r {
				t.Errorf("rank %d reported remote read of its own vertex %d", r, v)
			}
		}
	}
}

func TestTriangleCountConversion(t *testing.T) {
	if got := TriangleCount(graph.Undirected, 9); got != 3 {
		t.Errorf("undirected TriangleCount(9) = %d, want 3", got)
	}
	if got := TriangleCount(graph.Directed, 9); got != 9 {
		t.Errorf("directed TriangleCount(9) = %d, want 9", got)
	}
}

func TestRunValidation(t *testing.T) {
	g := fig1Graph()
	if _, err := Run(g, Options{Ranks: -2}); err == nil {
		t.Error("Run accepted negative rank count")
	}
}

func TestRunOnRegistryGraph(t *testing.T) {
	res, err := Run(gen.MustLoad("fb-sim"), Options{Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles <= 0 {
		t.Errorf("fb-sim Triangles = %d, want > 0 (dense social circles)", res.Triangles)
	}
}

func TestAvgRemoteReadTimeAndMissRates(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 12))
	res, err := Run(g, Options{
		Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, OffsetsCacheBytes: 1 << 16, AdjCacheBytes: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.AvgRemoteReadTime(); v <= 0 {
		t.Errorf("AvgRemoteReadTime = %v, want > 0", v)
	}
	offR, adjR := res.CacheMissRates()
	if offR <= 0 || offR > 1 || adjR <= 0 || adjR > 1 {
		t.Errorf("miss rates out of range: off=%v adj=%v", offR, adjR)
	}
}

// BenchmarkNewSnapshot is the snapshot half of set-up on the benchmark's
// R-MAT graph at its rank count: partition, per-rank extraction, resolve
// and pair tables, integrity sums.
func BenchmarkNewSnapshot(b *testing.B) {
	g := gen.MustLoad("rmat-s15-ef16")
	b.SetBytes(g.CSRSizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSnapshotOpts(g, SnapshotOptions{Ranks: 32}); err != nil {
			b.Fatal(err)
		}
	}
}
