package tric

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/rma"
)

func randomGraph(kind graph.Kind, n, m int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed+101))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.V(rng.IntN(n)), Dst: graph.V(rng.IntN(n))}
	}
	return graph.MustBuild(kind, n, edges)
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

func TestTriCMatchesSharedReference(t *testing.T) {
	for _, kind := range []graph.Kind{graph.Undirected, graph.Directed} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := randomGraph(kind, 100, 700, seed)
			want := lcc.SharedLCC(g, intersect.MethodHybrid)
			for _, p := range []int{1, 2, 5, 8} {
				got, err := Run(g, Options{Ranks: p, Method: intersect.MethodHybrid})
				if err != nil {
					t.Fatalf("%v seed %d p=%d: %v", kind, seed, p, err)
				}
				if got.Triangles != want.Triangles {
					t.Errorf("%v seed %d p=%d: Triangles = %d, want %d",
						kind, seed, p, got.Triangles, want.Triangles)
				}
				if !lccClose(got.LCC, want.LCC) {
					t.Errorf("%v seed %d p=%d: LCC mismatch", kind, seed, p)
				}
			}
		}
	}
}

func TestTriCBufferedMatchesUnbuffered(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 4))
	plain := MustRun(g, Options{Ranks: 4, Method: intersect.MethodHybrid})
	buffered := MustRun(g, Options{Ranks: 4, Method: intersect.MethodHybrid, Buffered: true, BufferBytes: 1 << 12})
	if plain.Triangles != buffered.Triangles {
		t.Fatalf("buffered Triangles = %d, want %d", buffered.Triangles, plain.Triangles)
	}
	if !lccClose(plain.LCC, buffered.LCC) {
		t.Error("buffered LCC differs")
	}
	// Smaller buffers force more rounds.
	if buffered.Supersteps <= plain.Supersteps {
		t.Errorf("buffered supersteps %d not above unbuffered %d", buffered.Supersteps, plain.Supersteps)
	}
}

func TestTriCMatchesAsyncEngine(t *testing.T) {
	// Cross-validation of the two independent distributed implementations.
	g := gen.RMAT(gen.DefaultRMAT(9, 8, graph.Undirected, 5))
	a, err := lcc.Run(g, lcc.Options{Ranks: 4, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	b := MustRun(g, Options{Ranks: 4, Method: intersect.MethodHybrid})
	if a.Triangles != b.Triangles {
		t.Fatalf("async %d vs TriC %d triangles", a.Triangles, b.Triangles)
	}
	if !lccClose(a.LCC, b.LCC) {
		t.Error("async and TriC LCC disagree")
	}
}

func TestTriCSlowerThanAsyncOnScaleFree(t *testing.T) {
	// The paper's headline comparison (§IV-D-2): on scale-free graphs the
	// asynchronous RMA engine beats TriC by a large factor.
	g := gen.RMAT(gen.DefaultRMAT(11, 16, graph.Undirected, 6))
	a, err := lcc.Run(g, lcc.Options{Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	b := MustRun(g, Options{Ranks: 8, Method: intersect.MethodHybrid})
	if b.SimTime <= a.SimTime {
		t.Errorf("TriC (%.1fms) not slower than async (%.1fms) on a scale-free graph",
			b.SimTime/1e6, a.SimTime/1e6)
	}
}

func TestTriCMemoryPressure(t *testing.T) {
	// Staged candidate lists demand far more memory on hub-heavy graphs
	// than the per-rank CSR partition itself (the OOM motivation for
	// TriC-Buffered).
	g := gen.RMAT(gen.DefaultRMAT(10, 16, graph.Undirected, 7))
	res := MustRun(g, Options{Ranks: 8, Method: intersect.MethodHybrid})
	perRankCSR := g.CSRSizeBytes() / 8
	if res.MaxQueuedBytes < perRankCSR {
		t.Errorf("MaxQueuedBytes = %d below per-rank CSR %d; expected heavy staging",
			res.MaxQueuedBytes, perRankCSR)
	}
}

func TestTriCSuperstepsCounted(t *testing.T) {
	g := randomGraph(graph.Undirected, 50, 200, 9)
	res := MustRun(g, Options{Ranks: 4, Method: intersect.MethodHybrid})
	if res.Supersteps < 3 {
		t.Errorf("Supersteps = %d, want >= 3 (queries, responses, absorb)", res.Supersteps)
	}
	if res.SimTime <= 0 {
		t.Error("SimTime not charged")
	}
	if len(res.Ledgers) != 4 {
		t.Errorf("Ledgers size %d, want 4", len(res.Ledgers))
	}
}

func TestTriCBarrierCostVisible(t *testing.T) {
	// Every rank must have paid barrier waits: the synchronization
	// overhead the paper's async design removes.
	g := randomGraph(graph.Undirected, 100, 600, 10)
	res := MustRun(g, Options{Ranks: 4, Method: intersect.MethodHybrid})
	for i, l := range res.Ledgers {
		if l[rma.ChargeBarrierWait] <= 0 && l[rma.ChargeOps] > 0 {
			t.Errorf("rank %d: barrier-wait slot %v, want > 0", i, l[rma.ChargeBarrierWait])
		}
	}
}

func TestTriCSingleRankNoComm(t *testing.T) {
	g := randomGraph(graph.Undirected, 60, 300, 11)
	res := MustRun(g, Options{Ranks: 1, Method: intersect.MethodHybrid})
	want := lcc.SharedLCC(g, intersect.MethodHybrid)
	if res.Triangles != want.Triangles {
		t.Errorf("Triangles = %d, want %d", res.Triangles, want.Triangles)
	}
	if send := res.Ledgers[0][rma.ChargeSend]; send != 0 {
		t.Errorf("single rank spent %v ns sending", send)
	}
}

func TestTriCOptionsDefaults(t *testing.T) {
	o := Options{Buffered: true}.withDefaults()
	if o.BufferBytes != 16<<20 {
		t.Errorf("default buffer = %d, want 16 MiB (the paper's cap)", o.BufferBytes)
	}
	if o.Ranks != 1 {
		t.Errorf("default ranks = %d, want 1", o.Ranks)
	}
}

func TestTriCDirectedBuffered(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, graph.Directed, 12))
	want := lcc.SharedLCC(g, intersect.MethodHybrid)
	res := MustRun(g, Options{Ranks: 6, Method: intersect.MethodHybrid, Buffered: true, BufferBytes: 1 << 11})
	if res.Triangles != want.Triangles {
		t.Errorf("directed buffered Triangles = %d, want %d", res.Triangles, want.Triangles)
	}
	if !lccClose(res.LCC, want.LCC) {
		t.Error("directed buffered LCC mismatch")
	}
}

func TestTriCSlowerThanAsyncEverywhere(t *testing.T) {
	// The paper's central comparison must hold in both variants.
	g := gen.RMAT(gen.DefaultRMAT(10, 16, graph.Undirected, 14))
	a, err := lcc.Run(g, lcc.Options{Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	plain := MustRun(g, Options{Ranks: 8, Method: intersect.MethodHybrid})
	buf := MustRun(g, Options{Ranks: 8, Method: intersect.MethodHybrid, Buffered: true, BufferBytes: 64 << 10})
	if plain.SimTime <= a.SimTime {
		t.Errorf("plain TriC (%.1fms) not slower than async (%.1fms)", plain.SimTime/1e6, a.SimTime/1e6)
	}
	if buf.SimTime <= a.SimTime {
		t.Errorf("TriC-Buffered (%.1fms) not slower than async (%.1fms)", buf.SimTime/1e6, a.SimTime/1e6)
	}
}
