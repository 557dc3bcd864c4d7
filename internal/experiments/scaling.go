package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lcc"
	"repro/internal/part"
	"repro/internal/tric"
)

// scalingSeries runs the four Fig. 9 series on one dataset for one rank
// count and returns simulated times in ns: LCC non-cached, LCC cached,
// TriC, TriC-Buffered. TriC is skipped (NaN-like -1) where noted.
type seriesResult struct {
	NonCached  float64
	Cached     float64
	TriC       float64
	TriCBuf    float64
	RemoteFrac float64
	CommFrac   float64
}

func runSeries(g *graph.Graph, ranks int, withTriC, withTriCBuf bool) seriesResult {
	var out seriesResult
	nc, err := lcc.Run(g, baseEngineOptions(ranks))
	if err != nil {
		panic(err)
	}
	out.NonCached = nc.SimTime
	out.RemoteFrac = nc.RemoteReadFraction()
	out.CommFrac = nc.CommFraction()

	opt := baseEngineOptions(ranks)
	opt.Caching = true
	opt.OffsetsCacheBytes, opt.AdjCacheBytes = lcc.PaperCacheBytes(g.NumVertices())
	cached, err := lcc.Run(g, opt)
	if err != nil {
		panic(err)
	}
	if cached.Triangles != nc.Triangles {
		panic(fmt.Sprintf("experiments: cached run changed triangle count: %d vs %d",
			cached.Triangles, nc.Triangles))
	}
	out.Cached = cached.SimTime

	if withTriC {
		tr := tric.MustRun(g, tric.Options{Ranks: ranks, Method: opt.Method})
		if tr.Triangles != nc.Triangles {
			panic(fmt.Sprintf("experiments: TriC disagrees on triangles: %d vs %d",
				tr.Triangles, nc.Triangles))
		}
		out.TriC = tr.SimTime
	}
	if withTriCBuf {
		// The paper caps TriC-Buffered at 16 MiB per peer; graphs here
		// are ~64x smaller, so the cap scales to 256 KiB.
		tb := tric.MustRun(g, tric.Options{
			Ranks: ranks, Method: opt.Method, Buffered: true, BufferBytes: 256 << 10,
		})
		out.TriCBuf = tb.SimTime
	}
	return out
}

// fig9Cases maps the six panels of Fig. 9 to their stand-ins.
var fig9Cases = []struct{ name, paper string }{
	{"rmat-s15-ef16", "R-MAT S21 EF16"},
	{"orkut-sim", "Orkut"},
	{"lj-sim", "LiveJournal"},
	{"rmat-s16-ef16", "R-MAT S23 EF16"},
	{"skitter-sim", "Skitter"},
	{"lj1-sim", "LiveJournal1"},
}

// Fig9SmallScale regenerates Fig. 9: strong scaling on 4..64 ranks for six
// graphs and four implementations, plus the §IV-D-2 remote-read and
// communication fractions (E11).
func Fig9SmallScale() *Table {
	t := &Table{
		ID:    "fig9",
		Title: "Small-scale strong scaling, simulated time in ms (4..64 ranks)",
		Paper: "async scales 9.2-14x from 4 to 64 ranks; caching up to -67%; TriC 10-100x slower on scale-free graphs",
		Header: []string{"dataset", "ranks", "non-cached", "cached", "tric", "tric-buf",
			"cache gain", "tric/nc", "remote frac", "comm frac"},
	}
	ranks := []int{4, 8, 16, 32, 64}
	for _, c := range fig9Cases {
		g := gen.MustLoad(c.name)
		var first, last float64
		for _, p := range ranks {
			r := runSeries(g, p, true, true)
			if p == ranks[0] {
				first = r.NonCached
			}
			last = r.NonCached
			t.AddRow(c.name, p,
				ms(r.NonCached), ms(r.Cached), ms(r.TriC), ms(r.TriCBuf),
				fmt.Sprintf("%+.0f%%", 100*(r.Cached-r.NonCached)/r.NonCached),
				fmt.Sprintf("%.1fx", r.TriC/r.NonCached),
				fmt.Sprintf("%.0f%%", 100*r.RemoteFrac),
				fmt.Sprintf("%.0f%%", 100*r.CommFrac))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s (%s): non-cached speedup 4→64 ranks = %.1fx",
			c.name, c.paper, first/last))
	}
	t.Notes = append(t.Notes,
		"paper speedups 4→64: R-MAT S21 10.8x, Orkut 9.4x, LiveJournal 13.9x, R-MAT S23 9.2x, Skitter 11.3x, LiveJournal1 14.0x")
	return t
}

// fig10Cases maps the three panels of Fig. 10.
var fig10Cases = []struct {
	name, paper string
	tricBufOnly bool // the paper ran TriC-Buffered where plain TriC OOMed
}{
	{"rmat-s18-ef16", "R-MAT S30 EF16", true},
	{"uk-sim", "uk-2005", false},
	{"wiki-sim", "wiki-en", false},
}

// Fig10LargeScale regenerates Fig. 10: strong scaling on 128..512 ranks.
func Fig10LargeScale() *Table {
	t := &Table{
		ID:     "fig10",
		Title:  "Large-scale strong scaling, simulated time in ms (128..512 ranks)",
		Paper:  "cached up to -73% on R-MAT S30 (cache only 12% of CSR); async up to 3.6x faster than TriC",
		Header: []string{"dataset", "ranks", "non-cached", "cached", "tric", "cache gain", "tric/nc"},
	}
	for _, c := range fig10Cases {
		g := gen.MustLoad(c.name)
		for _, p := range []int{128, 256, 512} {
			r := runSeries(g, p, !c.tricBufOnly, c.tricBufOnly)
			tricTime := r.TriC
			if c.tricBufOnly {
				tricTime = r.TriCBuf
			}
			t.AddRow(c.name, p, ms(r.NonCached), ms(r.Cached), ms(tricTime),
				fmt.Sprintf("%+.0f%%", 100*(r.Cached-r.NonCached)/r.NonCached),
				fmt.Sprintf("%.1fx", tricTime/r.NonCached))
		}
	}
	t.Notes = append(t.Notes,
		"rmat-s18-ef16 runs TriC-Buffered: the paper notes plain TriC runs out of memory on large scale-free graphs",
		"paper speedups 128→512: R-MAT S30 3.4x, uk-2005 1.8x (cached), wiki-en 1.8x (cached)")
	return t
}

// AblationOverlap regenerates A2: double buffering on/off.
func AblationOverlap() *Table {
	t := &Table{
		ID:     "ablation-overlap",
		Title:  "A2: double-buffering ablation (" + fig7Dataset + ")",
		Paper:  "§III-A overlaps the next edge's communication with the current edge's computation",
		Header: []string{"ranks", "overlap on (ms)", "overlap off (ms)", "gain"},
	}
	g := gen.MustLoad(fig7Dataset)
	for _, p := range []int{4, 16, 64} {
		on := baseEngineOptions(p)
		off := baseEngineOptions(p)
		off.DoubleBuffer = false
		ron, err := lcc.Run(g, on)
		if err != nil {
			panic(err)
		}
		roff, err := lcc.Run(g, off)
		if err != nil {
			panic(err)
		}
		t.AddRow(p, ms(ron.SimTime), ms(roff.SimTime),
			fmt.Sprintf("%.1f%%", 100*(roff.SimTime-ron.SimTime)/roff.SimTime))
	}
	t.Notes = append(t.Notes,
		"§IV-D-2 predicts modest gains: communication dominates, so overlapping one edge cannot hide most of it")
	return t
}

// AblationCyclic regenerates A3 (the paper's future-work direction i and
// §III-A discussion): cyclic vs block 1D distribution on a degree-ordered
// graph, where block partitioning concentrates the hubs.
func AblationCyclic() *Table {
	t := &Table{
		ID:     "ablation-cyclic",
		Title:  "A3: block vs cyclic vs arc-balanced 1D distribution on a degree-ordered BA graph (16 ranks)",
		Paper:  "§III-A: skewed degrees imbalance block 1D; cyclic balances (Lumsdaine et al.); §IV-D-2 blames imbalance for up to 25% runtime spread",
		Header: []string{"scheme", "sim time (ms)", "imbalance", "edge cut"},
	}
	// Degree-ordered: BA assigns low ids to hubs; skip the random
	// relabeling the paper would apply so the imbalance is visible.
	raw := gen.BarabasiAlbert(1<<14, 16, graph.Undirected, 77)
	g := graph.RemoveLowDegreeIter(raw)
	for _, scheme := range []part.Scheme{part.Block, part.Cyclic, part.BlockArcs} {
		opt := baseEngineOptions(16)
		opt.Scheme = scheme
		res, err := lcc.Run(g, opt)
		if err != nil {
			panic(err)
		}
		pt, err := part.Build(scheme, g, 16)
		if err != nil {
			panic(err)
		}
		t.AddRow(scheme.String(), ms(res.SimTime), part.Imbalance(g, pt), part.EdgeCut(g, pt))
	}
	t.Notes = append(t.Notes,
		"expect: cyclic and block-arcs both erase the imbalance; block-arcs keeps contiguous ranges",
		"(cheap ownership arithmetic) at a similar edge cut — the practical fix for §IV-D-2")
	return t
}

func ms(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", ns/1e6)
}
