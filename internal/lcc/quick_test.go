package lcc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
)

// TestDistributedPropertyRandomConfigs is the engine's main property test:
// for random graphs and *random engine configurations* — rank count,
// distribution scheme, intersection method (including hash), caching with
// arbitrary tiny cache sizes, score policy, double buffering — the
// distributed result must equal brute force exactly. Caching and
// distribution are performance features; any influence on the numbers is
// a bug.
func TestDistributedPropertyRandomConfigs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		m := 2 * n * (1 + rng.Intn(4))
		kind := graph.Undirected
		if rng.Intn(2) == 0 {
			kind = graph.Directed
		}
		return matchesBruteForce(t, seed, rng, kind, n, randomEdges(rng, n, m), allMethods)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// Graphs the draw above never reaches: hubs whose upper lists are long
	// and dense enough for the orientation index to keep a DenseSet over
	// them. Two stars over 600 to 800 vertices — one centred on vertex 0,
	// whose whole list lies above it, one on a vertex in the lower half — a
	// clique of 80 to 140, whose members' lists are long enough to meet the
	// stars' under Algorithm 2 (the AND), and random edges among the rest,
	// whose short lists meet them under Algorithm 1 (the rank query).
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 600 + rng.Intn(200)
		edges := randomEdges(rng, n, 2*n)
		for _, centre := range []graph.V{0, graph.V(1 + rng.Intn(n/2))} {
			for v := 0; v < n; v++ {
				if graph.V(v) != centre && rng.Intn(8) != 0 {
					edges = append(edges, graph.Edge{Src: centre, Dst: graph.V(v)})
				}
			}
		}
		clique := rng.Perm(n)[:80+rng.Intn(60)]
		for i, u := range clique {
			for _, v := range clique[:i] {
				edges = append(edges, graph.Edge{Src: graph.V(u), Dst: graph.V(v)})
			}
		}
		if !matchesBruteForce(t, seed, rng, graph.Undirected, n, edges, allMethods[seed%3:][:1]) {
			t.Fatalf("dense-hub graph, seed %d: the engine and brute force disagree", seed)
		}
	}
}

var allMethods = []intersect.Method{intersect.MethodSSI, intersect.MethodBinary, intersect.MethodHybrid}

func randomEdges(rng *rand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
	}
	return edges
}

// matchesBruteForce builds the graph, draws an engine configuration from rng
// — the method from methods — and reports whether the distributed result
// equals BruteForceLCC's.
func matchesBruteForce(t *testing.T, seed int64, rng *rand.Rand, kind graph.Kind, n int, edges []graph.Edge, methods []intersect.Method) bool {
	g, err := graph.Build(kind, n, edges)
	if err != nil {
		return false
	}
	want := BruteForceLCC(g)

	opt := Options{
		Ranks:        1 + rng.Intn(9),
		Method:       methods[rng.Intn(len(methods))],
		DoubleBuffer: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 1:
		opt.Scheme = part.Cyclic
	case 2:
		opt.Scheme = part.BlockArcs
	}
	if rng.Intn(2) == 0 {
		opt.Caching = true
		opt.OffsetsCacheBytes = 16 * (1 + rng.Intn(n)) // deliberately tiny
		opt.AdjCacheBytes = 4 * (1 + rng.Intn(4*n))
		opt.AdjScorePolicy = ScorePolicy(rng.Intn(2))
	}
	got, err := Run(g, opt)
	if err != nil {
		return false
	}
	if got.Triangles != want.Triangles {
		t.Logf("seed %d: config %+v: triangles %d, want %d", seed, opt, got.Triangles, want.Triangles)
		return false
	}
	for v := range want.LCC {
		if got.LCC[v] != want.LCC[v] {
			t.Logf("seed %d: vertex %d: lcc %g, want %g", seed, v, got.LCC[v], want.LCC[v])
			return false
		}
	}
	return true
}
