package lcc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
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

func TestForwardMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := randomUndirected(rng, 24, 70)
		want := BruteForceLCC(g)
		got, err := ForwardLCC(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Triangles != want.Triangles {
			t.Fatalf("trial %d: forward triangles = %d, brute force = %d", trial, got.Triangles, want.Triangles)
		}
		for v := range want.PerVertex {
			if got.PerVertex[v] != want.PerVertex[v] {
				t.Fatalf("trial %d: vertex %d: forward t=%d, brute force t=%d", trial, v, got.PerVertex[v], want.PerVertex[v])
			}
			if got.LCC[v] != want.LCC[v] {
				t.Fatalf("trial %d: vertex %d: forward lcc=%g, want %g", trial, v, got.LCC[v], want.LCC[v])
			}
		}
	}
}

func TestForwardMatchesSharedOnRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 99))
	want := SharedLCC(g, intersect.MethodHybrid)
	got, err := ForwardLCC(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.Triangles {
		t.Fatalf("forward = %d triangles, shared = %d", got.Triangles, want.Triangles)
	}
}

func TestForwardRejectsDirected(t *testing.T) {
	g, err := graph.Build(graph.Directed, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForwardLCC(g); err == nil {
		t.Fatal("ForwardLCC accepted a directed graph")
	}
	if _, err := Orient(g); err == nil {
		t.Fatal("Orient accepted a directed graph")
	}
	if _, _, err := DegeneracyOrder(g); err == nil {
		t.Fatal("DegeneracyOrder accepted a directed graph")
	}
}

func TestOrientationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomUndirected(rng, 60, 300)
	o, err := Orient(g)
	if err != nil {
		t.Fatal(err)
	}
	arcs := 0
	for u := 0; u < g.NumVertices(); u++ {
		arcs += len(o.out[u])
	}
	if arcs != g.NumEdges() {
		t.Fatalf("orientation has %d arcs, want m=%d", arcs, g.NumEdges())
	}
	for u := 0; u < g.NumVertices(); u++ {
		outU := o.out[u]
		for i, v := range outU {
			if i > 0 && outU[i-1] >= v {
				t.Fatalf("out(%d) not strictly sorted", u)
			}
			du, dv := g.OutDegree(graph.V(u)), g.OutDegree(v)
			if du > dv || (du == dv && graph.V(u) > v) {
				t.Fatalf("arc %d→%d violates degree order (deg %d vs %d)", u, v, du, dv)
			}
			// Antisymmetry: v must not also point to u.
			for _, w := range o.out[v] {
				if w == graph.V(u) {
					t.Fatalf("both %d→%d and %d→%d oriented", u, v, v, u)
				}
			}
		}
	}
}

// TestOrientByOrderMatchesOrient holds the two orientation builders and
// the two merge loops to each other: OrientByOrder given the (degree, id)
// order reproduces Orient arc for arc, and CountOriented on that orientation
// reports ForwardLCC's triangles and merge ops.
func TestOrientByOrderMatchesOrient(t *testing.T) {
	graphs := []*graph.Graph{gen.RMAT(gen.DefaultRMAT(10, 8, graph.Undirected, 99))}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		graphs = append(graphs, randomUndirected(rng, 24, 70))
	}
	for i, g := range graphs {
		o, err := Orient(g)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]graph.V, g.NumVertices())
		for v := range order {
			order[v] = graph.V(v)
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := g.OutDegree(order[a]), g.OutDegree(order[b])
			return da < db || da == db && order[a] < order[b]
		})
		byOrder, err := OrientByOrder(g, order)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumVertices(); u++ {
			if !slices.Equal(o.out[u], byOrder.out[u]) {
				t.Fatalf("graph %d: out(%d) = %v by order, %v by Orient", i, u, byOrder.out[u], o.out[u])
			}
		}
		fwd, err := ForwardLCC(g)
		if err != nil {
			t.Fatal(err)
		}
		if tris, ops := CountOriented(o); tris != fwd.Triangles || ops != fwd.Ops {
			t.Fatalf("graph %d: CountOriented = (%d, %d), ForwardLCC = (%d, %d)", i, tris, ops, fwd.Triangles, fwd.Ops)
		}
	}
}

// listTriangles collects the triangles the forward merge reports, each as
// {u, v, w} in orientation order.
func listTriangles(t *testing.T, g *graph.Graph) [][3]graph.V {
	t.Helper()
	o, err := Orient(g)
	if err != nil {
		t.Fatal(err)
	}
	var tris [][3]graph.V
	o.merge(func(u, v, w graph.V) { tris = append(tris, [3]graph.V{u, v, w}) })
	return tris
}

func TestListTriangles(t *testing.T) {
	// K4 has exactly 4 triangles.
	var edges []graph.Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{Src: graph.V(i), Dst: graph.V(j)})
		}
	}
	g, err := graph.Build(graph.Undirected, 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	tris := listTriangles(t, g)
	if len(tris) != 4 {
		t.Fatalf("K4 has %d listed triangles, want 4", len(tris))
	}
	seen := map[[3]graph.V]bool{}
	for _, tr := range tris {
		if seen[tr] {
			t.Fatalf("duplicate triangle %v", tr)
		}
		seen[tr] = true
		if !g.HasEdge(tr[0], tr[1]) || !g.HasEdge(tr[1], tr[2]) || !g.HasEdge(tr[0], tr[2]) {
			t.Fatalf("listed non-triangle %v", tr)
		}
	}
}

func TestListTrianglesCountsMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUndirected(rng, 20, 60)
		res, err := ForwardLCC(g)
		if err != nil {
			return false
		}
		return int64(len(listTriangles(t, g))) == res.Triangles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegeneracyOrder(t *testing.T) {
	// A triangle with a pendant: degeneracy 2.
	g, err := graph.Build(graph.Undirected, 4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}, {Src: 2, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	order, k, err := DegeneracyOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("degeneracy = %d, want 2", k)
	}
	if len(order) != 4 {
		t.Fatalf("order has %d entries, want 4", len(order))
	}
	seen := map[graph.V]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("order repeats vertex %d", v)
		}
		seen[v] = true
	}
}

func TestDegeneracyTree(t *testing.T) {
	// A path: degeneracy 1.
	g, err := graph.Build(graph.Undirected, 5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, k, err := DegeneracyOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("path degeneracy = %d, want 1", k)
	}
}

func TestOrientByOrderMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomUndirected(rng, 30, 120)
		want, err := ForwardLCC(g)
		if err != nil {
			t.Fatal(err)
		}
		order, _, err := DegeneracyOrder(g)
		if err != nil {
			t.Fatal(err)
		}
		o, err := OrientByOrder(g, order)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := CountOriented(o)
		if got != want.Triangles {
			t.Fatalf("trial %d: degeneracy-oriented count = %d, want %d", trial, got, want.Triangles)
		}
		// A random permutation must also preserve the count: any acyclic
		// orientation keeps exactly one wedge per triangle.
		perm := make([]graph.V, g.NumVertices())
		for i := range perm {
			perm[i] = graph.V(i)
		}
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		o2, err := OrientByOrder(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		got2, _ := CountOriented(o2)
		if got2 != want.Triangles {
			t.Fatalf("trial %d: random-order count = %d, want %d", trial, got2, want.Triangles)
		}
	}
}

func TestOrientByOrderRejectsBadOrder(t *testing.T) {
	g, err := graph.Build(graph.Undirected, 3, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OrientByOrder(g, []graph.V{0, 1}); err == nil {
		t.Fatal("accepted short order")
	}
	if _, err := OrientByOrder(g, []graph.V{0, 1, 1}); err == nil {
		t.Fatal("accepted non-permutation")
	}
}

func TestMaxOutDegreeBound(t *testing.T) {
	// Star graph: the centre has degree n-1 but the degree orientation
	// points every leaf at the centre... leaves have degree 1 < centre,
	// so arcs go leaf→centre and the centre's out-degree is 0.
	n := 50
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.V(i)})
	}
	g, err := graph.Build(graph.Undirected, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Orient(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.MaxOutDegree(); got != 1 {
		t.Fatalf("star max oriented out-degree = %d, want 1", got)
	}
	if len(o.out[0]) != 0 {
		t.Fatalf("star centre out-degree = %d, want 0", len(o.out[0]))
	}
}
