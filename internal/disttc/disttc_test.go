package disttc

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
)

func randomUndirected(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
	}
	g, err := graph.Build(graph.Undirected, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestDistTCMatchesShared(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		g := randomUndirected(rng, 40, 200)
		want := lcc.SharedLCC(g, intersect.MethodHybrid)
		for _, ranks := range []int{1, 2, 4, 8} {
			got, err := Run(g, Options{Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			if got.Triangles != want.Triangles {
				t.Fatalf("trial %d, %d ranks: DistTC Δ = %d, want %d",
					trial, ranks, got.Triangles, want.Triangles)
			}
			for v := range want.LCC {
				if got.LCC[v] != want.LCC[v] {
					t.Fatalf("trial %d, %d ranks: vertex %d lcc = %g, want %g",
						trial, ranks, v, got.LCC[v], want.LCC[v])
				}
			}
		}
	}
}

func TestDistTCOnRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 7))
	want := lcc.SharedLCC(g, intersect.MethodHybrid)
	got, err := Run(g, Options{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles {
		t.Fatalf("R-MAT: DistTC Δ = %d, want %d", got.Triangles, want.Triangles)
	}
}

func TestDistTCRejectsDirected(t *testing.T) {
	g, _ := graph.Build(graph.Directed, 3, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Run(g, Options{Ranks: 2}); err == nil {
		t.Fatal("DistTC accepted a directed graph")
	}
}

func TestDistTCSingleRankNoShadows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomUndirected(rng, 30, 120)
	got, err := Run(g, Options{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.ShadowArcs != 0 {
		t.Fatalf("1 rank shipped %d shadow arcs, want 0", got.ShadowArcs)
	}
	if got.ReplicationFactor != 1 {
		t.Fatalf("1-rank replication factor = %g, want 1", got.ReplicationFactor)
	}
}

func TestDistTCShadowsGrowWithRanks(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 3))
	var prev int64 = -1
	for _, ranks := range []int{2, 4, 8, 16} {
		got, err := Run(g, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if got.ShadowArcs <= 0 {
			t.Fatalf("%d ranks: no shadow arcs on a cut graph", ranks)
		}
		if got.ShadowArcs < prev {
			t.Fatalf("%d ranks: shadow arcs %d decreased below %d",
				ranks, got.ShadowArcs, prev)
		}
		prev = got.ShadowArcs
		if got.ReplicationFactor <= 1 {
			t.Fatalf("%d ranks: replication factor %g, want > 1", ranks, got.ReplicationFactor)
		}
	}
}

func TestDistTCPrecomputeDominates(t *testing.T) {
	// The paper's §I critique: the total running time becomes dominated
	// by the precomputation step, limiting scalability. Strong-scaling a
	// scale-free graph must show the precompute/compute ratio growing
	// with the rank count and crossing 1 once over-partitioned.
	g := gen.RMAT(gen.DefaultRMAT(11, 8, graph.Undirected, 5))
	prevRatio := 0.0
	for _, ranks := range []int{4, 8, 16, 32} {
		got, err := Run(g, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		ratio := got.PrecomputeTime / (got.SimTime - got.PrecomputeTime)
		if ratio < prevRatio {
			t.Fatalf("%d ranks: precompute/compute ratio %.2f fell below %.2f; expected monotone growth",
				ranks, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	got, err := Run(g, Options{Ranks: 32})
	if err != nil {
		t.Fatal(err)
	}
	if compute := got.SimTime - got.PrecomputeTime; got.PrecomputeTime <= compute {
		t.Fatalf("32 ranks: precompute %.0f ns <= compute %.0f ns; expected precompute-dominated",
			got.PrecomputeTime, compute)
	}
}

func TestDistTCDeterministic(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 11))
	a, err := Run(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.Triangles != b.Triangles || a.ShadowArcs != b.ShadowArcs {
		t.Fatalf("two identical runs diverged: (%g,%d,%d) vs (%g,%d,%d)",
			a.SimTime, a.Triangles, a.ShadowArcs, b.SimTime, b.Triangles, b.ShadowArcs)
	}
}

func TestMustRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic on a directed graph")
		}
	}()
	g, _ := graph.Build(graph.Directed, 3, []graph.Edge{{Src: 0, Dst: 1}})
	MustRun(g, Options{Ranks: 2})
}
