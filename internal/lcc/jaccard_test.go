package lcc

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/part"
)

func TestJaccardKnownGraph(t *testing.T) {
	// Triangle: for every edge (u,v), adj(u)={v,w}, adj(v)={u,w}:
	// intersection {w} (u ∉ adj(u)), union {u,v,w} -> J = 1/3.
	tri := graph.MustBuild(graph.Undirected, 3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	res, err := RunJaccard(tri, Options{Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != tri.NumArcs() {
		t.Fatalf("Scores length %d, want %d", len(res.Scores), tri.NumArcs())
	}
	for k, s := range res.Scores {
		if math.Abs(s-1.0/3.0) > 1e-12 {
			t.Errorf("arc %d: J = %v, want 1/3", k, s)
		}
	}
}

func TestJaccardMatchesBruteForce(t *testing.T) {
	for _, kind := range []graph.Kind{graph.Undirected, graph.Directed} {
		g := randomSimpleGraph(kind, 80, 500, 9)
		want := BruteForceJaccard(g)
		for _, scheme := range []part.Scheme{part.Block, part.Cyclic, part.BlockArcs} {
			for _, ranks := range []int{1, 3, 8} {
				for _, caching := range []bool{false, true} {
					opt := Options{Ranks: ranks, Scheme: scheme, Method: intersect.MethodHybrid, DoubleBuffer: true, Caching: caching}
					if caching {
						opt.OffsetsCacheBytes = 1 << 12
						opt.AdjCacheBytes = 1 << 14
					}
					res, err := RunJaccard(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					for k := range want {
						if math.Abs(res.Scores[k]-want[k]) > 1e-12 {
							t.Fatalf("%v %v p=%d caching=%v: arc %d J = %v, want %v",
								kind, scheme, ranks, caching, k, res.Scores[k], want[k])
						}
					}
				}
			}
		}
	}
}

func TestJaccardSymmetricOnUndirected(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, graph.Undirected, 10))
	res, err := RunJaccard(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	// J(u,v) must equal J(v,u): locate both arcs via CSR offsets.
	offsets := g.Offsets()
	arcs := g.Arcs()
	arcIndex := func(u, v graph.V) int {
		for k := offsets[u]; k < offsets[u+1]; k++ {
			if arcs[k] == v {
				return int(k)
			}
		}
		return -1
	}
	checked := 0
	for u := 0; u < g.NumVertices() && checked < 500; u++ {
		for _, v := range g.Adj(graph.V(u)) {
			k1 := arcIndex(graph.V(u), v)
			k2 := arcIndex(v, graph.V(u))
			if k1 < 0 || k2 < 0 {
				t.Fatalf("missing reverse arc (%d,%d)", u, v)
			}
			if math.Abs(res.Scores[k1]-res.Scores[k2]) > 1e-12 {
				t.Fatalf("J(%d,%d)=%v != J(%d,%d)=%v", u, v, res.Scores[k1], v, u, res.Scores[k2])
			}
			checked++
		}
	}
}

func TestJaccardScoresInRange(t *testing.T) {
	g := gen.BarabasiAlbert(1024, 8, graph.Undirected, 11)
	res, err := RunJaccard(g, Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range res.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("arc %d: J = %v out of [0,1]", k, s)
		}
	}
	if res.SimTime <= 0 {
		t.Error("no simulated time charged")
	}
}

func TestJaccardDataset(t *testing.T) {
	res, err := RunJaccard(gen.MustLoad("fb-sim"), Options{Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dense social circles must contain some strongly similar pairs.
	max := 0.0
	for _, s := range res.Scores {
		if s > max {
			max = s
		}
	}
	if max < 0.3 {
		t.Errorf("max Jaccard = %v, want clustered pairs (>= 0.3)", max)
	}
}

// BruteForceJaccard is the O(m·d) reference used by tests.
func BruteForceJaccard(g *graph.Graph) []float64 {
	scores := make([]float64, g.NumArcs())
	arc := 0
	for v := 0; v < g.NumVertices(); v++ {
		adjV := g.Adj(graph.V(v))
		for _, u := range adjV {
			adjU := g.Adj(u)
			inter := 0
			for _, x := range adjV {
				if g.HasEdge(u, x) {
					inter++
				}
			}
			union := len(adjV) + len(adjU) - inter
			if union > 0 {
				scores[arc] = float64(inter) / float64(union)
			}
			arc++
		}
	}
	return scores
}
