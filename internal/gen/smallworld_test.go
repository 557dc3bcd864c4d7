package gen_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
)

func TestWattsStrogatzLattice(t *testing.T) {
	// beta=0: a pure ring lattice with n·k/2 edges and uniform degree k.
	g := gen.WattsStrogatz(100, 6, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 100*6/2 {
		t.Fatalf("lattice has %d edges, want %d", g.NumEdges(), 300)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.V(v)); d != 6 {
			t.Fatalf("lattice vertex %d has degree %d, want 6", v, d)
		}
	}
}

func TestWattsStrogatzLatticeLCCClosedForm(t *testing.T) {
	// The beta=0 clustering coefficient is 3(k-2)/(4(k-1)) for every
	// vertex; this doubles as an end-to-end check of the LCC engine.
	for _, k := range []int{4, 6, 10} {
		g := gen.WattsStrogatz(200, k, 0, 1)
		res := lcc.SharedLCC(g, intersect.MethodHybrid)
		want := gen.RingLatticeLCC(k)
		for v := 0; v < g.NumVertices(); v++ {
			if math.Abs(res.LCC[v]-want) > 1e-12 {
				t.Fatalf("k=%d: lattice LCC[%d] = %g, closed form %g", k, v, res.LCC[v], want)
			}
		}
	}
}

func TestWattsStrogatzRewiringLowersLCC(t *testing.T) {
	// The small-world result: clustering decays as beta grows.
	avg := func(beta float64) float64 {
		g := gen.WattsStrogatz(400, 8, beta, 7)
		res := lcc.SharedLCC(g, intersect.MethodHybrid)
		s := 0.0
		for _, c := range res.LCC {
			s += c
		}
		return s / float64(len(res.LCC))
	}
	c0, cHalf, c1 := avg(0), avg(0.5), avg(1)
	if !(c0 > cHalf && cHalf > c1) {
		t.Fatalf("LCC not decreasing in beta: C(0)=%g, C(0.5)=%g, C(1)=%g", c0, cHalf, c1)
	}
	if c1 > 0.2*c0 {
		t.Fatalf("full rewiring kept too much clustering: C(1)=%g vs C(0)=%g", c1, c0)
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	a := gen.WattsStrogatz(128, 6, 0.3, 42)
	b := gen.WattsStrogatz(128, 6, 0.3, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Adj(graph.V(v)), b.Adj(graph.V(v))
		if len(av) != len(bv) {
			t.Fatalf("same seed, vertex %d degree differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("same seed, vertex %d adjacency differs", v)
			}
		}
	}
	c := gen.WattsStrogatz(128, 6, 0.3, 43)
	same := true
	for v := 0; v < a.NumVertices() && same; v++ {
		av, cv := a.Adj(graph.V(v)), c.Adj(graph.V(v))
		if len(av) != len(cv) {
			same = false
			break
		}
		for i := range av {
			if av[i] != cv[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestWattsStrogatzParameterClamping(t *testing.T) {
	// Odd k is rounded up; k >= n is clamped down; the result must stay
	// a valid simple graph.
	g := gen.WattsStrogatz(10, 9, 0.2, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g = gen.WattsStrogatz(5, 12, 0, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRingLatticeLCC(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{2, 0},
		{4, 0.5},
		{6, 0.6},
		{1, 0},
	}
	for _, c := range cases {
		if got := gen.RingLatticeLCC(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("gen.RingLatticeLCC(%d) = %g, want %g", c.k, got, c.want)
		}
	}
}
