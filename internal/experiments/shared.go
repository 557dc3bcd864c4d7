package experiments

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/stats"
)

// table3Graphs are Table III's datasets: each stand-in and the paper graph
// it replaces.
var table3Graphs = []struct{ name, paper string }{
	{"rmat-s14-ef8", "R-MAT S20 EF8"},
	{"rmat-s14-ef16", "R-MAT S20 EF16"},
	{"rmat-s14-ef32", "R-MAT S20 EF32"},
	{"lj-sim", "LiveJournal"},
	{"orkut-sim", "Orkut"},
}

// Table3Intersection regenerates Table III: edges processed per
// microsecond for the hybrid, SSI and binary-search intersection methods.
// These are real wall-clock measurements (the only experiment family that
// is not simulated), taken with the §IV-A methodology: repeat until the
// 95% CI of the median is within 5%.
func Table3Intersection() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Intersection methods, edges/µs (wall clock, single thread)",
		Paper:  "hybrid > SSI > binary on every graph (e.g. LiveJournal 1.084/1.018/0.984 at 16 threads)",
		Header: []string{"dataset", "paper graph", "hybrid", "ssi", "binary", "best"},
		Notes: []string{
			"paper used 16 threads on a Xeon Gold 6154; this host has one core, so absolute rates differ",
			"expectation is ordinal: hybrid first on every row",
		},
	}
	methods := []intersect.Method{intersect.MethodHybrid, intersect.MethodSSI, intersect.MethodBinary}
	for _, c := range table3Graphs {
		g := gen.MustLoad(c.name)
		rates := make([]float64, len(methods))
		for i, m := range methods {
			meas := stats.Repeat(func() float64 {
				start := time.Now()
				lcc.SharedLCC(g, m)
				return time.Since(start).Seconds() * 1e6 // µs
			}, 3, 7, 0.05)
			rates[i] = float64(g.NumArcs()) / meas.Median
		}
		best := "hybrid"
		if rates[1] > rates[0] && rates[1] >= rates[2] {
			best = "ssi"
		} else if rates[2] > rates[0] {
			best = "binary"
		}
		t.AddRow(c.name, c.paper, rates[0], rates[1], rates[2], best)
	}
	return t
}

// Fig6SharedScaling regenerates Fig. 6: strong scaling of the hybrid
// method over 1..16 threads. The paper's mechanism — per-edge OpenMP
// region entry limiting the speedup to 2.0-2.7x — is reproduced with the
// modeled-time executor (this host has one core; see DESIGN.md §1).
func Fig6SharedScaling() *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Shared-memory strong scaling, hybrid method (modeled threads)",
		Paper:  "speedups at 16 threads: R-MAT S20 EF16 2.0x, R-MAT S20 EF32 2.7x, Orkut 1.2x",
		Header: []string{"dataset", "paper graph", "threads", "edges/µs", "speedup"},
		Notes: []string{
			"modeled-time executor: per-edge parallel-region cost + chunked work, the bottleneck §IV-C profiles",
			"threads are modeled, not run: the engines parallelize across simulated ranks (internal/sched), never inside one intersection",
		},
	}
	cases := []struct{ name, paper string }{
		{"rmat-s14-ef16", "R-MAT S20 EF16"},
		{"rmat-s14-ef32", "R-MAT S20 EF32"},
		{"orkut-sim", "Orkut"},
	}
	tm := intersect.DefaultThreadModel()
	for _, c := range cases {
		g := gen.MustLoad(c.name)
		base := 0.0
		for _, threads := range []int{1, 2, 4, 8, 16} {
			total := modeledSharedTime(g, tm, threads) // ns
			rate := float64(g.NumArcs()) / (total / 1e3)
			if threads == 1 {
				base = total
			}
			t.AddRow(c.name, c.paper, threads, rate, fmt.Sprintf("%.1fx", base/total))
		}
	}
	return t
}

// modeledSharedTime sums the modeled per-edge intersection time over every
// edge of the graph.
func modeledSharedTime(g *graph.Graph, tm intersect.ThreadModel, threads int) float64 {
	total := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		adjI := g.Adj(graph.V(v))
		for _, vj := range adjI {
			adjJ := g.Adj(vj)
			if g.Kind() == graph.Undirected {
				adjJ = intersect.UpperSlice(adjJ, vj)
			}
			total += tm.EdgeTime(len(adjI), len(adjJ), threads)
		}
	}
	return total
}

// AblationCutoff regenerates the A1 ablation: the sequential cut-off value
// of the parallel intersection (§III-C determines one empirically).
func AblationCutoff() *Table {
	t := &Table{
		ID:     "ablation-cutoff",
		Title:  "A1: parallel-region cutoff sweep (16 modeled threads, rmat-s14-ef16)",
		Paper:  "§III-C: a too-small parallel region limits performance; a cutoff is required",
		Header: []string{"cutoff", "edges/µs", "vs best"},
	}
	g := gen.MustLoad("rmat-s14-ef16")
	tm := intersect.DefaultThreadModel()
	cutoffs := []int{0, 64, 256, 512, 1024, 4096, 1 << 30}
	rates := make([]float64, len(cutoffs))
	best := 0.0
	for i, c := range cutoffs {
		tm.Cutoff = c
		total := modeledSharedTime(g, tm, 16)
		rates[i] = float64(g.NumArcs()) / (total / 1e3)
		if rates[i] > best {
			best = rates[i]
		}
	}
	for i, c := range cutoffs {
		label := fmt.Sprint(c)
		if c == 1<<30 {
			label = "inf (sequential)"
		}
		t.AddRow(label, rates[i], fmt.Sprintf("%.0f%%", 100*rates[i]/best))
	}
	t.Notes = append(t.Notes, "expect an interior optimum: 0 pays region cost on tiny lists, inf never parallelizes")
	return t
}
