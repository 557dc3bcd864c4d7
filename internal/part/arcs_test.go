package part

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func skewedGraph(n int, seed int64) *graph.Graph {
	// Degree-ordered BA-like construction: early vertices become hubs.
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		for k := 0; k < 4; k++ {
			// Preferential-ish: attach to a random earlier vertex,
			// biased to small ids.
			t := rng.Intn(v)
			t = rng.Intn(t + 1)
			if graph.V(t) != graph.V(v) {
				edges = append(edges, graph.Edge{Src: graph.V(v), Dst: graph.V(t)})
			}
		}
	}
	g, err := graph.Build(graph.Undirected, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewArcBalancedInvariants(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := 1 + int(pRaw)%16
		g := skewedGraph(200, seed)
		pt, err := newArcBalanced(g, p)
		if err != nil {
			return false
		}
		// Ranges must tile [0, n) in order.
		covered := 0
		for r := 0; r < p; r++ {
			lo, hi := pt.rangeOf(r)
			if int(lo) != covered || hi < lo {
				return false
			}
			covered = int(hi)
		}
		if covered != g.NumVertices() {
			return false
		}
		// Owner / LocalIndex / VertexAt must be mutually consistent.
		for v := 0; v < g.NumVertices(); v++ {
			r := pt.Owner(graph.V(v))
			lo, hi := pt.rangeOf(r)
			if graph.V(v) < lo || graph.V(v) >= hi {
				return false
			}
			if pt.VertexAt(r, pt.LocalIndex(graph.V(v))) != graph.V(v) {
				return false
			}
		}
		// Sizes sum to n.
		total := 0
		for r := 0; r < p; r++ {
			total += pt.Size(r)
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArcBalancedBeatsBlockOnSkew(t *testing.T) {
	g := skewedGraph(2000, 7)
	for _, p := range []int{4, 8, 16} {
		block := MustNew(Block, g.NumVertices(), p)
		arcs, err := newArcBalanced(g, p)
		if err != nil {
			t.Fatal(err)
		}
		ib, ia := Imbalance(g, block), Imbalance(g, arcs)
		if ia >= ib {
			t.Fatalf("p=%d: arc-balanced imbalance %.2f not below block %.2f", p, ia, ib)
		}
		if ia > 1.6 {
			t.Fatalf("p=%d: arc-balanced imbalance %.2f too high", p, ia)
		}
	}
}

func TestArcBalancedUniformNearEqual(t *testing.T) {
	// On a uniform-degree graph, arc balancing reduces to vertex
	// balancing: sizes differ only around range boundaries.
	var edges []graph.Edge
	n := 512
	for v := 0; v < n; v++ {
		for k := 1; k <= 3; k++ {
			edges = append(edges, graph.Edge{Src: graph.V(v), Dst: graph.V((v + k) % n)})
		}
	}
	g, err := graph.Build(graph.Undirected, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := newArcBalanced(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if s := pt.Size(r); s < n/8-2 || s > n/8+2 {
			t.Fatalf("rank %d owns %d vertices on a uniform graph, want ≈ %d", r, s, n/8)
		}
	}
}

func TestArcBalancedEveryRankNonEmpty(t *testing.T) {
	g := skewedGraph(64, 3)
	pt, err := newArcBalanced(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		if pt.Size(r) == 0 {
			t.Fatalf("rank %d empty with n=64, p=16", r)
		}
	}
}

func TestBlockArcsSchemeErrors(t *testing.T) {
	if _, err := New(BlockArcs, 10, 2); err == nil {
		t.Fatal("New accepted BlockArcs without a graph")
	}
	g := skewedGraph(20, 1)
	if _, err := newArcBalanced(g, 0); err == nil {
		t.Fatal("newArcBalanced accepted p=0")
	}
	if BlockArcs.String() != "block-arcs" {
		t.Fatalf("String() = %q", BlockArcs.String())
	}
}

func TestBuildDispatch(t *testing.T) {
	g := skewedGraph(50, 2)
	for _, s := range []Scheme{Block, Cyclic, BlockArcs} {
		pt, err := Build(s, g, 4)
		if err != nil {
			t.Fatalf("Build(%v): %v", s, err)
		}
		if pt.Scheme() != s {
			t.Fatalf("Build(%v) produced scheme %v", s, pt.Scheme())
		}
	}
}
