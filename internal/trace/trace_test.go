package trace

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
)

func TestRecorderCollectsPerRank(t *testing.T) {
	rec := NewRecorder(2)
	hook := rec.Hook()
	hook(0, 4)
	hook(0, 4)
	hook(1, 1)
	if len(rec.perRank[0]) != 2 || len(rec.perRank[1]) != 1 {
		t.Errorf("per-rank reads wrong: %v / %v", rec.perRank[0], rec.perRank[1])
	}
	counts := rec.Counts(6, -1)
	if counts[4] != 2 || counts[1] != 1 {
		t.Errorf("Counts = %v", counts)
	}
	only0 := rec.Counts(6, 0)
	if only0[1] != 0 || only0[4] != 2 {
		t.Errorf("rank-filtered Counts = %v", only0)
	}
}

func TestReuseHistogram(t *testing.T) {
	counts := []int{0, 3, 3, 1, 0, 1, 1}
	bins := ReuseHistogram(counts)
	// 3 vertices read once, 2 vertices read 3 times.
	if len(bins) != 2 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0].Repetitions != 1 || bins[0].Reads != 3 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].Repetitions != 3 || bins[1].Reads != 2 {
		t.Errorf("bin1 = %+v", bins[1])
	}
}

func TestEndToEndReuseOnFig1Graph(t *testing.T) {
	g := graph.MustBuild(graph.Undirected, 6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3},
		{Src: 1, Dst: 4}, {Src: 2, Dst: 4}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5},
	})
	rec := NewRecorder(2)
	_, err := lcc.Run(g, lcc.Options{
		Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true,
		OnRemoteRead: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.Counts(6, 0)
	// Rank 0 (vertices 0-2) reads vertex 4 for the LCC of vertices 1 and 2
	// (Fig. 1's data-reuse example).
	if counts[4] < 2 {
		t.Errorf("vertex 4 read %d times by rank 0, want >= 2", counts[4])
	}
	bins := ReuseHistogram(counts)
	if len(bins) == 0 {
		t.Fatal("no reuse bins")
	}
}

func TestTopShareSeparatesDistributions(t *testing.T) {
	// Power-law graph: remote reads concentrate on high-degree vertices;
	// uniform graph: they don't (Fig. 4: 91.9% vs 11.7%).
	run := func(g *graph.Graph) float64 {
		rec := NewRecorder(8)
		if _, err := lcc.Run(g, lcc.Options{
			Ranks: 8, Method: intersect.MethodHybrid, DoubleBuffer: true,
			OnRemoteRead: rec.Hook(),
		}); err != nil {
			t.Fatal(err)
		}
		return TopShare(g, rec.Counts(g.NumVertices(), -1), 0.10)
	}
	rmat := run(gen.RMAT(gen.DefaultRMAT(11, 16, graph.Undirected, 31)))
	unif := run(gen.ErdosRenyi(1<<11, 1<<15, graph.Undirected, 32))
	if rmat < 0.5 {
		t.Errorf("R-MAT top-10%% share = %.2f, want high (paper: 0.92)", rmat)
	}
	if unif > 0.35 {
		t.Errorf("uniform top-10%% share = %.2f, want low (paper: 0.12)", unif)
	}
	if rmat <= unif {
		t.Errorf("R-MAT share %.2f not above uniform %.2f", rmat, unif)
	}
}

func TestDegreeScatterAndCorrelation(t *testing.T) {
	// Observation 3.1: accesses correlate with degree.
	g := gen.EgoNet(gen.DefaultEgoNet(11))
	rec := NewRecorder(2)
	if _, err := lcc.Run(g, lcc.Options{
		Ranks: 2, Method: intersect.MethodHybrid, DoubleBuffer: true,
		OnRemoteRead: rec.Hook(),
	}); err != nil {
		t.Fatal(err)
	}
	pts := DegreeScatter(g, rec.Counts(g.NumVertices(), -1))
	if len(pts) == 0 {
		t.Fatal("no scatter points")
	}
	for _, p := range pts {
		if p.EntrySize != 4*p.Degree {
			t.Fatalf("EntrySize %d != 4*Degree %d (Observation 3.1)", p.EntrySize, p.Degree)
		}
	}
	if r := Correlation(pts); r < 0.5 {
		t.Errorf("degree/access correlation = %.2f, want strong (Observation 3.1)", r)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	if c := Correlation(nil); c != 0 {
		t.Errorf("Correlation(nil) = %v", c)
	}
	same := []DegreePoint{{Degree: 5, Accesses: 1}, {Degree: 5, Accesses: 2}}
	if c := Correlation(same); c != 0 {
		t.Errorf("Correlation with zero variance = %v, want 0", c)
	}
}
