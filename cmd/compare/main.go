// Command compare runs every triangle-counting engine in the repository on
// one graph and one rank count, verifies that they all agree on the
// triangle total, and prints a side-by-side comparison: the paper's
// asynchronous RMA engine (cached and non-cached), its push-mode (§VI ii)
// and 2D block (§VI i) variants, the TriC and TriC-Buffered baselines
// (§IV-B), and the single-node shared-memory and forward references.
//
// Usage:
//
//	compare -dataset rmat-s14-ef16 -ranks 16
//	compare -dataset lj-sim -ranks 8 -skip tric
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/tric"

	"repro/internal/graph"
)

func main() {
	dataset, ranks, skipped, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}

	g, err := gen.Load(dataset)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: |V|=%d |E|=%d (%v), %d ranks\n\n",
		dataset, g.NumVertices(), g.NumEdges(), g.Kind(), ranks)

	type row struct {
		name    string
		simMS   float64 // simulated distributed time; 0 for single-node refs
		notes   string
		tricnt  int64
		checked bool
	}
	var rows []row

	shared := lcc.SharedLCC(g, intersect.MethodHybrid)
	want := shared.Triangles
	rows = append(rows, row{name: "shared (hybrid)", tricnt: shared.Triangles, checked: true,
		notes: fmt.Sprintf("%d intersection ops", shared.Ops)})

	if g.Kind() == graph.Undirected && !skipped["forward"] {
		fwd, err := lcc.ForwardLCC(g)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, row{name: "forward (Schank–Wagner)", tricnt: fwd.Triangles,
			checked: true, notes: fmt.Sprintf("%d merge ops", fwd.Ops)})
	}

	async, err := lcc.Run(g, lcc.Options{Ranks: ranks, Method: intersect.MethodHybrid, DoubleBuffer: true})
	if err != nil {
		fatal(err)
	}
	rows = append(rows, row{name: "async RMA (non-cached)", simMS: async.SimTime / 1e6,
		tricnt: async.Triangles, checked: true,
		notes: fmt.Sprintf("%.0f%% reads remote", 100*async.RemoteReadFraction())})

	cachedOpt := lcc.Options{
		Ranks: ranks, Method: intersect.MethodHybrid, DoubleBuffer: true,
		Caching: true, AdjScorePolicy: lcc.ScoreDegree,
	}
	cachedOpt.OffsetsCacheBytes, cachedOpt.AdjCacheBytes = lcc.PaperCacheBytes(g.NumVertices())
	cached, err := lcc.Run(g, cachedOpt)
	if err != nil {
		fatal(err)
	}
	rows = append(rows, row{name: "async RMA (cached, degree scores)", simMS: cached.SimTime / 1e6,
		tricnt: cached.Triangles, checked: true,
		notes: fmt.Sprintf("%.0f%% hit rate", 100*cached.HitRate())})

	if g.Kind() == graph.Undirected && !skipped["push"] {
		pushed, err := lcc.RunPush(g, lcc.Options{Ranks: ranks, Method: intersect.MethodHybrid, DoubleBuffer: true})
		if err != nil {
			fatal(err)
		}
		rows = append(rows, row{name: "async RMA push (batched)", simMS: pushed.SimTime / 1e6,
			tricnt: pushed.Triangles, checked: true,
			notes: fmt.Sprintf("%d batched accumulates", pushed.AggregateRMA().Puts)})
	}

	if !skipped["tric"] {
		tr := tric.MustRun(g, tric.Options{Ranks: ranks, Method: intersect.MethodHybrid})
		rows = append(rows, row{name: "TriC", simMS: tr.SimTime / 1e6, tricnt: tr.Triangles,
			checked: true, notes: fmt.Sprintf("%d supersteps", tr.Supersteps)})
	}
	if !skipped["tricbuf"] {
		tb := tric.MustRun(g, tric.Options{Ranks: ranks, Method: intersect.MethodHybrid,
			Buffered: true, BufferBytes: 256 << 10})
		rows = append(rows, row{name: "TriC-Buffered", simMS: tb.SimTime / 1e6, tricnt: tb.Triangles,
			checked: true, notes: fmt.Sprintf("%d supersteps", tb.Supersteps)})
	}
	if q := isqrt(ranks); g.Kind() == graph.Undirected && q*q == ranks && !skipped["2d"] {
		td := grid.MustRun(g, grid.Options{Ranks: ranks})
		rows = append(rows, row{name: "async RMA 2D (future work i)", simMS: td.SimTime / 1e6,
			tricnt: td.Triangles, checked: true,
			notes: fmt.Sprintf("%.2f MB/rank max, %d block gets", float64(td.RemoteBytesMax)/1e6, td.BlockFetches)})
	}

	fmt.Printf("%-34s  %12s  %12s  %s\n", "engine", "sim time", "triangles", "notes")
	fmt.Println(strings.Repeat("-", 90))
	ok := true
	for _, r := range rows {
		sim := "single-node"
		if r.simMS > 0 {
			sim = fmt.Sprintf("%.2f ms", r.simMS)
		}
		mark := ""
		if r.checked && r.tricnt != want {
			mark = "  <-- DISAGREES"
			ok = false
		}
		fmt.Printf("%-34s  %12s  %12d  %s%s\n", r.name, sim, r.tricnt, r.notes, mark)
	}
	fmt.Println(strings.Repeat("-", 90))
	if !ok {
		fatal(fmt.Errorf("engines disagree on the triangle count"))
	}
	fmt.Printf("all engines agree: %d triangles ✓\n", want)
}

// skippable lists the engines -skip accepts. The shared-memory reference
// every row is checked against and the two async pull runs always run.
var skippable = []string{"tric", "tricbuf", "forward", "push", "2d"}

// parseArgs parses compare's command line. A -ranks below 1 or a bad -skip
// list is an error, returned before any dataset is loaded.
func parseArgs(args []string) (dataset string, ranks int, skipped map[string]bool, err error) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.StringVar(&dataset, "dataset", "rmat-s14-ef16", "registered dataset name (see graphgen -list)")
	fs.IntVar(&ranks, "ranks", 8, "number of simulated computing nodes")
	skip := fs.String("skip", "", "comma-separated engines to skip: "+strings.Join(skippable, ","))
	_ = fs.Parse(args) // ExitOnError: a malformed flag has exited 2 already
	if ranks < 1 {
		return "", 0, nil, fmt.Errorf("-ranks %d: must be at least 1", ranks)
	}
	skipped, err = parseSkip(*skip)
	return dataset, ranks, skipped, err
}

// parseSkip parses the -skip list: comma-separated engine names, blanks
// ignored, any name outside skippable an error that lists the valid ones.
func parseSkip(list string) (map[string]bool, error) {
	skipped := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !slices.Contains(skippable, s) {
			return nil, fmt.Errorf("-skip: unknown engine %q (valid: %s)", s, strings.Join(skippable, ", "))
		}
		skipped[s] = true
	}
	return skipped, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// isqrt returns ⌊√x⌋ for small non-negative x.
func isqrt(x int) int {
	q := 0
	for (q+1)*(q+1) <= x {
		q++
	}
	return q
}
