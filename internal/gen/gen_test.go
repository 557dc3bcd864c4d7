package gen

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stats"
)

// degrees returns g's out-degrees as a sample for stats.Gini and
// stats.TopShare.
func degrees(g *graph.Graph) []float64 {
	d := make([]float64, g.NumVertices())
	for v := range d {
		d[v] = float64(g.OutDegree(graph.V(v)))
	}
	return d
}

func TestRMATDeterministic(t *testing.T) {
	p := DefaultRMAT(10, 8, graph.Undirected, 99)
	a := RMAT(p)
	b := RMAT(p)
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("RMAT not deterministic: %d/%d vs %d/%d",
			a.NumVertices(), a.NumArcs(), b.NumVertices(), b.NumArcs())
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.Adj(graph.V(v)), b.Adj(graph.V(v))
		if len(av) != len(bv) {
			t.Fatalf("adjacency of %d differs between runs", v)
		}
	}
}

func TestRMATSeedChangesGraph(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 8, graph.Undirected, 1))
	b := RMAT(DefaultRMAT(10, 8, graph.Undirected, 2))
	if a.NumArcs() == b.NumArcs() && a.MaxDegree() == b.MaxDegree() {
		// Extremely unlikely for both to coincide if the seed matters.
		t.Errorf("different seeds produced suspiciously identical graphs")
	}
}

func TestRMATValidAndSkewed(t *testing.T) {
	g := RMAT(DefaultRMAT(12, 16, graph.Undirected, 7))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.NumVertices(), 1<<12; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	// The paper's parameterization is heavily skewed: the Gini coefficient
	// must be far above a uniform graph's.
	deg := degrees(g)
	if gi := stats.Gini(deg); gi < 0.35 {
		t.Errorf("R-MAT Gini = %.3f, want skewed (>= 0.35)", gi)
	}
	if share := stats.TopShare(deg, 0.10); share < 0.4 {
		t.Errorf("R-MAT top-10%% share = %.2f, want >= 0.4 (paper reports 91.9%% at full scale)", share)
	}
}

func TestErdosRenyiUniform(t *testing.T) {
	g := ErdosRenyi(1<<12, 1<<16, graph.Undirected, 5)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	deg := degrees(g)
	if gi := stats.Gini(deg); gi > 0.25 {
		t.Errorf("Erdos-Renyi Gini = %.3f, want near-uniform (<= 0.25)", gi)
	}
	share := stats.TopShare(deg, 0.10)
	if share < 0.08 || share > 0.25 {
		t.Errorf("uniform top-10%% share = %.2f, want ~0.12 (paper: 11.7%%)", share)
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g := BarabasiAlbert(4096, 8, graph.Undirected, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if gi := stats.Gini(degrees(g)); gi < 0.3 {
		t.Errorf("BA Gini = %.3f, want skewed", gi)
	}
	// Preferential attachment: max degree far above the mean.
	if md, avg := g.MaxDegree(), float64(g.NumArcs())/float64(g.NumVertices()); float64(md) < 5*avg {
		t.Errorf("BA max degree %d not a hub (avg %.1f)", md, avg)
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	g := BarabasiAlbert(3, 5, graph.Undirected, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() < 3 {
		t.Errorf("BA clamped n too far: %d", g.NumVertices())
	}
}

func TestEgoNetShape(t *testing.T) {
	g := EgoNet(DefaultEgoNet(11))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	n, m := g.NumVertices(), g.NumEdges()
	// Target the Facebook circles dataset scale: ~4k vertices, ~88k edges.
	if n < 2500 || n > 6500 {
		t.Errorf("EgoNet n = %d, want ~4000", n)
	}
	if m < 40000 || m > 160000 {
		t.Errorf("EgoNet m = %d, want ~88000", m)
	}
	// Hubs exist (circle centers).
	if md := g.MaxDegree(); md < 80 {
		t.Errorf("EgoNet max degree = %d, want hubby (>= 80)", md)
	}
}

func TestRegistryAllLoadable(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every dataset; skipped in -short")
	}
	for _, name := range Names() {
		g, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%q): %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", name, err)
		}
		d, _ := Lookup(name)
		if g.Kind() != d.Kind {
			t.Errorf("%s: kind = %v, want %v", name, g.Kind(), d.Kind)
		}
		// Preparation must have removed all degree-<2 vertices.
		in := g.InDegrees()
		for v := 0; v < g.NumVertices(); v++ {
			total := in[v]
			if g.Kind() == graph.Directed {
				total += g.OutDegree(graph.V(v))
			}
			if total < 2 {
				t.Errorf("%s: vertex %d survives with total degree %d", name, v, total)
				break
			}
		}
	}
}

func TestLoadMemoizes(t *testing.T) {
	a := MustLoad("fb-sim")
	b := MustLoad("fb-sim")
	if a != b {
		t.Errorf("Load did not memoize")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-dataset"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := Load("no-such-dataset"); err == nil {
		t.Error("Load accepted an unknown name")
	}
}

func TestPrepareBreaksDegreeOrder(t *testing.T) {
	// BA assigns low ids to hubs; Prepare must de-correlate id and degree.
	raw := BarabasiAlbert(4096, 8, graph.Undirected, 42)
	prep := Prepare(raw, 1)
	if degreeCorrelated(prep) {
		t.Errorf("Prepare left ids correlated with degree")
	}
}

func TestPreparePreservesEdgeCount(t *testing.T) {
	raw := RMAT(DefaultRMAT(10, 16, graph.Undirected, 9))
	pruned := graph.RemoveLowDegreeIter(raw)
	prep := Prepare(raw, 1)
	if prep.NumEdges() != pruned.NumEdges() {
		t.Errorf("Prepare changed edge count: %d vs %d", prep.NumEdges(), pruned.NumEdges())
	}
}

// Property: every RMAT scale/edge-factor in a small range yields a valid
// graph with the right vertex count.
func TestRMATPropertyValid(t *testing.T) {
	f := func(seed uint64) bool {
		scale := 6 + int(seed%4)
		ef := 4 + int(seed%8)
		g := RMAT(DefaultRMAT(scale, ef, graph.Undirected, seed))
		return g.Validate() == nil && g.NumVertices() == 1<<scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDirectedGenerators(t *testing.T) {
	d := RMAT(DefaultRMAT(10, 8, graph.Directed, 4))
	if d.Kind() != graph.Directed {
		t.Fatalf("Kind = %v", d.Kind())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := BarabasiAlbert(1024, 4, graph.Directed, 4)
	if b.Kind() != graph.Directed {
		t.Fatalf("BA Kind = %v", b.Kind())
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("BA Validate: %v", err)
	}
}

// degreeCorrelated reports whether vertex id rank correlates with degree
// rank strongly enough (|Spearman| > 0.5 on a sample) that 1D partitioning
// would concentrate hubs on few processes.
func degreeCorrelated(g *graph.Graph) bool {
	n := g.NumVertices()
	if n < 4 {
		return false
	}
	const samples = 4096
	step := n / samples
	if step < 1 {
		step = 1
	}
	type pair struct {
		id  int
		deg int
	}
	var pts []pair
	for v := 0; v < n; v += step {
		pts = append(pts, pair{v, g.OutDegree(graph.V(v))})
	}
	k := len(pts)
	// Spearman rank correlation between id order and degree rank.
	byDeg := make([]int, k)
	for i := range byDeg {
		byDeg[i] = i
	}
	sort.SliceStable(byDeg, func(a, b int) bool { return pts[byDeg[a]].deg < pts[byDeg[b]].deg })
	rank := make([]float64, k)
	for r, idx := range byDeg {
		rank[idx] = float64(r)
	}
	var sum float64
	for i, r := range rank {
		d := float64(i) - r
		sum += d * d
	}
	fk := float64(k)
	rho := 1 - 6*sum/(fk*(fk*fk-1))
	return rho > 0.5 || rho < -0.5
}
