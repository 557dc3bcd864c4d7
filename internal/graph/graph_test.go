package graph

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// paperGraph builds the 6-vertex example of Fig. 1 (left): vertices 0..5,
// undirected edges forming the two-node toy graph.
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 5},
	}
	g, err := Build(Undirected, 6, edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := paperGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.NumVertices(), 6; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 8; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got, want := g.NumArcs(), 16; got != want {
		t.Errorf("NumArcs = %d, want %d", got, want)
	}
	if got, want := g.Adj(1), []V{0, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("Adj(1) = %v, want %v", got, want)
	}
	if g.OutDegree(4) != 4 {
		t.Errorf("OutDegree(4) = %d, want 4", g.OutDegree(4))
	}
}

func TestBuildRemovesLoopsAndMultiEdges(t *testing.T) {
	edges := []Edge{{0, 0}, {0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 2}}
	g, err := Build(Undirected, 3, edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.NumEdges(), 2; got != want {
		t.Errorf("NumEdges = %d, want %d (loops and duplicates must collapse)", got, want)
	}
}

func TestBuildDirected(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}}
	g, err := Build(Directed, 3, edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.NumEdges(), 4; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("directed graph stored arcs incorrectly")
	}
	in := g.InDegrees()
	if got, want := in[2], 2; got != want {
		t.Errorf("InDegree(2) = %d, want %d", got, want)
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(Undirected, 2, []Edge{{0, 5}}); err == nil {
		t.Fatal("Build accepted an out-of-range endpoint")
	}
}

func TestHasEdge(t *testing.T) {
	g := paperGraph(t)
	cases := []struct {
		u, v V
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 4, false}, {4, 5, true}, {5, 5, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := paperGraph(t)
	g2, err := Build(Undirected, g.NumVertices(), g.Edges())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !reflect.DeepEqual(g.offsets, g2.offsets) || !reflect.DeepEqual(g.adj, g2.adj) {
		t.Errorf("Edges()+Build did not round-trip")
	}
}

func TestRemoveLowDegree(t *testing.T) {
	// Vertex 3 is a pendant (degree 1) and vertex 4 is isolated.
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	g := MustBuild(Undirected, 5, edges)
	pruned, remap := removeLowDegree(g)
	if err := pruned.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := pruned.NumVertices(), 3; got != want {
		t.Fatalf("kept %d vertices, want %d", got, want)
	}
	if remap[3] != noVertex || remap[4] != noVertex {
		t.Errorf("pendant/isolated vertices not removed: remap=%v", remap)
	}
	if got, want := pruned.NumEdges(), 3; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
}

func TestRemoveLowDegreeDirectedUsesTotalDegree(t *testing.T) {
	// 0->1, 1->2, 2->0 is a directed triangle: every vertex has total
	// degree 2 and must survive even though each out-degree is 1.
	g := MustBuild(Directed, 3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	pruned, _ := removeLowDegree(g)
	if got, want := pruned.NumVertices(), 3; got != want {
		t.Fatalf("kept %d vertices, want %d", got, want)
	}
}

func TestRemoveLowDegreeIterReachesFixpoint(t *testing.T) {
	// A path 0-1-2-3-4 hanging off a triangle 4-5-6: each removal round
	// exposes the next pendant; only the triangle survives.
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 4}}
	g := MustBuild(Undirected, 7, edges)
	pruned := RemoveLowDegreeIter(g)
	if got, want := pruned.NumVertices(), 3; got != want {
		t.Fatalf("kept %d vertices, want %d (the triangle)", got, want)
	}
	if got, want := pruned.NumEdges(), 3; got != want {
		t.Fatalf("kept %d edges, want %d", got, want)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := paperGraph(t)
	perm := []V{5, 3, 1, 0, 2, 4}
	rl, err := Relabel(g, perm)
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if err := rl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for u := 0; u < g.NumVertices(); u++ {
			if g.HasEdge(V(v), V(u)) != rl.HasEdge(perm[v], perm[u]) {
				t.Fatalf("edge (%d,%d) not preserved under relabeling", v, u)
			}
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := paperGraph(t)
	if _, err := Relabel(g, []V{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("Relabel accepted a non-permutation")
	}
	if _, err := Relabel(g, []V{0, 1, 2}); err == nil {
		t.Error("Relabel accepted a short permutation")
	}
}

func TestCSRSizeBytes(t *testing.T) {
	g := paperGraph(t)
	want := int64(7*8 + 16*4)
	if got := g.CSRSizeBytes(); got != want {
		t.Errorf("CSRSizeBytes = %d, want %d", got, want)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf, Undirected)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round-trip changed sizes: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
}

func TestReadEdgeListSkipsCommentsAndCompacts(t *testing.T) {
	in := "# comment\n% konect comment\n100 200\n200 300\n\n300 100\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in), Undirected)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if got, want := g.NumVertices(), 3; got != want {
		t.Errorf("NumVertices = %d, want %d (ids must be compacted)", got, want)
	}
	if got, want := g.NumEdges(), 3; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
}

func TestReadEdgeListRejectsGarbage(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("1 two\n"), Undirected); err == nil {
		t.Error("ReadEdgeList accepted a non-numeric endpoint")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("justone\n"), Undirected); err == nil {
		t.Error("ReadEdgeList accepted a single-field line")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Undirected, Directed} {
		g := randomGraph(t, kind, 200, 800, 7)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if !reflect.DeepEqual(g.offsets, g2.offsets) || !reflect.DeepEqual(g.adj, g2.adj) || g.kind != g2.kind {
			t.Errorf("binary round-trip mismatch for %v", kind)
		}
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	g := paperGraph(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:10])); err == nil {
		t.Error("ReadBinary accepted a truncated stream")
	}
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("ReadBinary accepted a bad magic")
	}
}

// outDegrees returns the out-degree sequence of g as a stats sample.
func outDegrees(g *Graph) []float64 {
	deg := make([]float64, g.NumVertices())
	for v := range deg {
		deg[v] = float64(g.OutDegree(V(v)))
	}
	return deg
}

func TestGiniCoefficient(t *testing.T) {
	// A cycle is perfectly uniform: Gini must be ~0.
	cycle := make([]Edge, 64)
	for i := range cycle {
		cycle[i] = Edge{V(i), V((i + 1) % 64)}
	}
	u := MustBuild(Undirected, 64, cycle)
	if gi := stats.Gini(outDegrees(u)); gi > 0.01 {
		t.Errorf("uniform cycle Gini = %.3f, want ~0", gi)
	}
	// A star is maximally unequal.
	star := make([]Edge, 63)
	for i := range star {
		star[i] = Edge{0, V(i + 1)}
	}
	s := MustBuild(Undirected, 64, star)
	if gi := stats.Gini(outDegrees(s)); gi < 0.4 {
		t.Errorf("star Gini = %.3f, want large", gi)
	}
}

func TestTopDegreeShare(t *testing.T) {
	inDegrees := func(g *Graph) []float64 {
		in := g.InDegrees()
		deg := make([]float64, len(in))
		for v, d := range in {
			deg[v] = float64(d)
		}
		return deg
	}
	star := make([]Edge, 99)
	for i := range star {
		star[i] = Edge{0, V(i + 1)}
	}
	s := MustBuild(Undirected, 100, star)
	// The hub absorbs half of all arcs; top-10% must cover well over 10%.
	if share := stats.TopShare(inDegrees(s), 0.10); share < 0.5 {
		t.Errorf("TopShare(star in-degrees, 0.10) = %.2f, want >= 0.5", share)
	}
	cycle := make([]Edge, 100)
	for i := range cycle {
		cycle[i] = Edge{V(i), V((i + 1) % 100)}
	}
	c := MustBuild(Undirected, 100, cycle)
	if share := stats.TopShare(inDegrees(c), 0.10); share > 0.15 {
		t.Errorf("TopShare(cycle in-degrees, 0.10) = %.2f, want ~0.10", share)
	}
}

// randomGraph builds a deterministic random simple graph for tests.
func randomGraph(t testing.TB, kind Kind, n, m int, seed uint64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{V(rng.IntN(n)), V(rng.IntN(n))}
	}
	g, err := Build(kind, n, edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// Property: for any random edge multiset, Build yields a graph that passes
// Validate and whose HasEdge agrees with a map-based reference.
func TestBuildPropertyMatchesReference(t *testing.T) {
	f := func(raw []uint16, directed bool) bool {
		const n = 50
		kind := Undirected
		if directed {
			kind = Directed
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{V(raw[i] % n), V(raw[i+1] % n)})
		}
		g, err := Build(kind, n, edges)
		if err != nil {
			return false
		}
		if err := g.Validate(); err != nil {
			return false
		}
		ref := map[[2]V]bool{}
		for _, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			ref[[2]V{e.Src, e.Dst}] = true
			if kind == Undirected {
				ref[[2]V{e.Dst, e.Src}] = true
			}
		}
		for u := V(0); u < n; u++ {
			for v := V(0); v < n; v++ {
				if g.HasEdge(u, v) != ref[[2]V{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Relabel with a random permutation preserves the degree multiset.
func TestRelabelPropertyDegreeMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(t, Undirected, 60, 240, seed%1000+1)
		n := g.NumVertices()
		rng := rand.New(rand.NewPCG(seed, 42))
		perm := make([]V, n)
		for i := range perm {
			perm[i] = V(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		rl, err := Relabel(g, perm)
		if err != nil {
			return false
		}
		a, b := make([]int, n), make([]int, n)
		for v := 0; v < n; v++ {
			a[v] = g.OutDegree(V(v))
			b[v] = rl.OutDegree(V(v))
		}
		sort.Ints(a)
		sort.Ints(b)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
