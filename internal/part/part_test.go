package part

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBlockRangesCoverAndDisjoint(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{16, 4}, {17, 4}, {5, 8}, {1, 1}, {1000, 7}, {64, 64},
	} {
		pt := MustNew(Block, tc.n, tc.p)
		covered := 0
		prevHi := graph.V(0)
		for r := 0; r < tc.p; r++ {
			lo, hi := pt.Range(r)
			if lo != prevHi {
				t.Errorf("n=%d p=%d: rank %d range starts at %d, want %d", tc.n, tc.p, r, lo, prevHi)
			}
			covered += int(hi - lo)
			prevHi = hi
			if got, want := pt.Size(r), int(hi-lo); got != want {
				t.Errorf("Size(%d) = %d, want %d", r, got, want)
			}
		}
		if covered != tc.n {
			t.Errorf("n=%d p=%d: ranges cover %d vertices", tc.n, tc.p, covered)
		}
	}
}

func TestOwnerMatchesRange(t *testing.T) {
	for _, scheme := range []Scheme{Block, Cyclic} {
		for _, tc := range []struct{ n, p int }{{16, 4}, {17, 4}, {100, 3}, {7, 7}} {
			pt := MustNew(scheme, tc.n, tc.p)
			counts := make([]int, tc.p)
			for v := 0; v < tc.n; v++ {
				o := pt.Owner(graph.V(v))
				if o < 0 || o >= tc.p {
					t.Fatalf("%v n=%d p=%d: Owner(%d) = %d out of range", scheme, tc.n, tc.p, v, o)
				}
				counts[o]++
			}
			for r := 0; r < tc.p; r++ {
				if counts[r] != pt.Size(r) {
					t.Errorf("%v n=%d p=%d: rank %d owns %d vertices, Size says %d",
						scheme, tc.n, tc.p, r, counts[r], pt.Size(r))
				}
			}
		}
	}
}

func TestLocalIndexVertexAtInverse(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%500)
		p := 1 + int(seed%13)
		for _, scheme := range []Scheme{Block, Cyclic} {
			pt := MustNew(scheme, n, p)
			for v := 0; v < n; v++ {
				o := pt.Owner(graph.V(v))
				li := pt.LocalIndex(graph.V(v))
				if li < 0 || li >= pt.Size(o) {
					return false
				}
				if pt.VertexAt(o, li) != graph.V(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCyclicBalancesSkewedGraph(t *testing.T) {
	// A graph whose low ids are hubs (BA without relabeling): cyclic must
	// be much better balanced than block.
	g := gen.BarabasiAlbert(4096, 8, graph.Undirected, 5)
	const p = 8
	block := Imbalance(g, MustNew(Block, g.NumVertices(), p))
	cyclic := Imbalance(g, MustNew(Cyclic, g.NumVertices(), p))
	if cyclic >= block {
		t.Errorf("cyclic imbalance %.3f not better than block %.3f on degree-ordered hubs", cyclic, block)
	}
	if cyclic > 1.3 {
		t.Errorf("cyclic imbalance %.3f, want near 1", cyclic)
	}
}

func TestEdgeCutGrowsWithP(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, graph.Undirected, 3))
	prev := 0.0
	for _, p := range []int{2, 4, 8, 16} {
		cut := EdgeCut(g, MustNew(Block, g.NumVertices(), p))
		if cut < prev {
			t.Errorf("edge cut decreased from %.3f to %.3f at p=%d", prev, cut, p)
		}
		prev = cut
	}
	// Paper: 95% of edges cross partitions for R-MAT on 8 ranks.
	cut8 := EdgeCut(g, MustNew(Block, g.NumVertices(), 8))
	if cut8 < 0.75 {
		t.Errorf("R-MAT edge cut at p=8 = %.2f, want high (paper: 0.95)", cut8)
	}
}

func TestExtractMatchesGraph(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, graph.Undirected, 9))
	const p = 4
	pt := MustNew(Block, g.NumVertices(), p)
	locals := ExtractAll(g, pt)
	if len(locals) != p {
		t.Fatalf("ExtractAll returned %d partitions", len(locals))
	}
	seen := 0
	for r, lc := range locals {
		if lc.NumLocal() != pt.Size(r) {
			t.Fatalf("rank %d: NumLocal = %d, want %d", r, lc.NumLocal(), pt.Size(r))
		}
		for i := 0; i < lc.NumLocal(); i++ {
			v := pt.VertexAt(r, i)
			want := g.Adj(v)
			got := lc.AdjOf(i)
			if len(got) != len(want) {
				t.Fatalf("rank %d local %d: adjacency length %d, want %d", r, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("rank %d local %d: adjacency mismatch at %d", r, i, j)
				}
			}
			seen++
		}
	}
	if seen != g.NumVertices() {
		t.Errorf("partitions cover %d vertices, want %d", seen, g.NumVertices())
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(Block, 10, 0); err == nil {
		t.Error("New accepted p=0")
	}
	if _, err := New(Block, -1, 2); err == nil {
		t.Error("New accepted n<0")
	}
}

func TestRangePanicsForCyclic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Range on a Cyclic partition did not panic")
		}
	}()
	MustNew(Cyclic, 10, 2).Range(0)
}

// TestExtractBulkMatchesPerVertex holds the one-copy extraction of a plain
// graph's contiguous rank ranges to the per-vertex path every other store
// and scheme takes — ranks with no vertices and vertices with no arcs
// included — and pins that a local never shares memory with the graph it
// was cut from: serve's scrub recovery damages locals and rebuilds from g.
func TestExtractBulkMatchesPerVertex(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		n := 40 + 37*int(seed)
		g := gen.ErdosRenyi(n, 3*n/int(seed), graph.Undirected, seed) // sparser with seed: isolated vertices
		pristine := g.Clone()
		perVertex := struct{ graph.Store }{g} // not a *graph.Graph: no bulk path
		for _, scheme := range []Scheme{Block, BlockArcs, Cyclic} {
			for _, p := range []int{1, 3, 32, n + 5} {
				pt, err := Build(scheme, g, p)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < p; r++ {
					got, want := extract(g, pt, r), extract(perVertex, pt, r)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %v p=%d rank %d: bulk extract\n%+v\nper-vertex extract\n%+v", seed, scheme, p, r, got, want)
					}
					for i := range got.Adj {
						got.Adj[i] ^= 1
					}
					for i := range got.Offsets {
						got.Offsets[i] ^= 1
					}
				}
				if !reflect.DeepEqual(g, pristine) {
					t.Fatalf("seed %d %v p=%d: writing to the locals changed the source graph", seed, scheme, p)
				}
			}
		}
	}
}

// MustNew is New that panics on error, for statically valid arguments.
func MustNew(scheme Scheme, n, p int) *Partition {
	pt, err := New(scheme, n, p)
	if err != nil {
		panic(err)
	}
	return pt
}
