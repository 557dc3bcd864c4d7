package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/stats"
	"repro/internal/trace"
)

// traceRun executes the non-cached engine on a dataset with a trace
// recorder attached and returns the recorder.
func traceRun(name string, ranks int) (*graph.Graph, *trace.Recorder) {
	g := gen.MustLoad(name)
	rec := trace.NewRecorder(ranks)
	_, err := lcc.Run(g, lcc.Options{
		Ranks:        ranks,
		Method:       intersect.MethodHybrid,
		DoubleBuffer: true,
		OnRemoteRead: rec.Hook(),
	})
	if err != nil {
		panic(err)
	}
	return g, rec
}

// Fig1DataReuse regenerates the Fig. 1 (right) histogram: remote reads
// issued by rank 0 on the Facebook-circles stand-in over 2 nodes, bucketed
// by how often each target was re-read.
func Fig1DataReuse() *Table {
	g, rec := traceRun("fb-sim", 2)
	counts := rec.Counts(g.NumVertices(), 0)
	bins := trace.ReuseHistogram(counts)
	t := &Table{
		ID:     "fig1",
		Title:  "LCC data reuse: remote reads issued by rank 0 (fb-sim, 2 ranks)",
		Paper:  "Facebook circles (4,039 v / 88,234 e): a heavy tail of targets re-read up to hundreds of times",
		Header: []string{"repetitions", "remote targets"},
		Notes: []string{
			fmt.Sprintf("fb-sim stands in for Facebook circles: n=%d m=%d (see DESIGN.md)", g.NumVertices(), g.NumEdges()),
			fmt.Sprintf("total remote reads by rank 0: %d over %d distinct targets", sum(counts), distinct(counts)),
		},
	}
	// Compact the long tail the way the paper's log-style axis does:
	// individual bins up to 8 repetitions, then ranges.
	ranges := []struct {
		lo, hi int
		label  string
	}{
		{1, 1, "1"}, {2, 2, "2"}, {3, 4, "3-4"}, {5, 8, "5-8"},
		{9, 16, "9-16"}, {17, 32, "17-32"}, {33, 64, "33-64"},
		{65, 256, "65-256"}, {257, 1 << 30, ">256"},
	}
	for _, r := range ranges {
		n := 0
		for _, b := range bins {
			if b.Repetitions >= r.lo && b.Repetitions <= r.hi {
				n += b.Reads
			}
		}
		t.AddRow(r.label, n)
	}
	return t
}

// Fig4DataReuse regenerates Fig. 4: how much of the remote-read traffic
// concentrates on the highest-degree vertices, for four degree
// distributions on 8 ranks with 1D partitioning.
func Fig4DataReuse() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Share of remote reads targeting the top 10% highest-degree vertices (8 ranks, 1D)",
		Paper:  "Uniform 11.7%, R-MAT S21 E16 91.9%, Orkut 42.5%, LiveJournal 57.4%",
		Header: []string{"dataset", "paper graph", "top-10% share", "paper value", "reads", "targets"},
	}
	cases := []struct {
		name  string
		paper string
		value string
	}{
		{"uniform", "Uniform", "11.7%"},
		{"rmat-s15-ef16", "R-MAT S21 E16", "91.9%"},
		{"orkut-sim", "Orkut", "42.5%"},
		{"lj-sim", "LiveJournal", "57.4%"},
	}
	for _, c := range cases {
		g, rec := traceRun(c.name, 8)
		counts := rec.Counts(g.NumVertices(), -1)
		share := trace.TopShare(g, counts, 0.10)
		t.AddRow(c.name, c.paper, fmt.Sprintf("%.1f%%", 100*share), c.value,
			sum(counts), distinct(counts))
	}
	t.Notes = append(t.Notes,
		"expectation is ordinal: uniform lowest, R-MAT highest, social graphs between")
	return t
}

// Fig5CacheEntries regenerates Fig. 5: per-vertex remote-access counts and
// cache entry sizes against vertex degree (fb-sim on 2 ranks), summarized
// by degree decile plus the degree/access correlation of Observation 3.1.
func Fig5CacheEntries() *Table {
	g, rec := traceRun("fb-sim", 2)
	counts := rec.Counts(g.NumVertices(), -1)
	pts := trace.DegreeScatter(g, counts)
	t := &Table{
		ID:     "fig5",
		Title:  "Data reuse and cache entry sizes vs vertex degree (fb-sim, 2 ranks)",
		Paper:  "accesses grow linearly with degree (Obs. 3.1); entry size = 4*degree bytes (Obs. 3.2)",
		Header: []string{"degree decile", "max degree", "avg accesses", "avg entry size (B)"},
	}
	if len(pts) == 0 {
		t.Notes = append(t.Notes, "no remote reads recorded")
		return t
	}
	const buckets = 10
	for b := 0; b < buckets; b++ {
		lo := b * len(pts) / buckets
		hi := (b + 1) * len(pts) / buckets
		if lo >= hi {
			continue
		}
		var acc, size, maxDeg int
		for _, p := range pts[lo:hi] {
			acc += p.Accesses
			size += p.EntrySize
			if p.Degree > maxDeg {
				maxDeg = p.Degree
			}
		}
		n := hi - lo
		t.AddRow(fmt.Sprintf("%d", b+1), maxDeg,
			float64(acc)/float64(n), float64(size)/float64(n))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Pearson correlation(degree, accesses) = %.3f (Obs. 3.1 predicts strongly positive)",
			trace.Correlation(pts)))
	return t
}

// Table2Datasets regenerates Table II: the dataset inventory with vertex,
// edge and CSR sizes after degree<2 removal.
func Table2Datasets() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Graphs used in this reproduction (Table II, scaled stand-ins)",
		Paper:  "SNAP/KONECT/WebGraph datasets, 1.7M-1074M vertices; see DESIGN.md for the mapping",
		Header: []string{"name", "stands in for", "kind", "|V|", "|E|", "CSR size", "max deg", "Gini"},
	}
	for _, name := range gen.Names() {
		d, _ := gen.Lookup(name)
		g := gen.MustLoad(name)
		deg := make([]float64, g.NumVertices())
		for v := range deg {
			deg[v] = float64(g.OutDegree(graph.V(v)))
		}
		t.AddRow(name, d.PaperName, g.Kind().String(),
			g.NumVertices(), g.NumEdges(), fmtBytes(g.CSRSizeBytes()),
			g.MaxDegree(), stats.Gini(deg))
	}
	t.Notes = append(t.Notes, "sizes after one-degree removal, as in the paper's Table II")
	return t
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func distinct(xs []int) int {
	d := 0
	for _, x := range xs {
		if x > 0 {
			d++
		}
	}
	return d
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
