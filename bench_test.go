// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (§IV), plus micro-benchmarks of the hot kernels. The macro
// benchmarks delegate to internal/experiments — the same code path as
// cmd/figures — render the regenerated table to stdout, and report the
// headline quantity via b.ReportMetric so `go test -bench` output carries
// the comparison numbers.
//
// Macro experiments take seconds to minutes each; run a single one with
// e.g. `go test -bench=Fig7 -benchtime=1x`.
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/clampi"
	"repro/internal/disttc"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/rma"
	"repro/internal/spmat"
	"repro/internal/tric"
)

// renderOnce renders each experiment table at most once per process, so
// repeated b.N iterations don't spam stdout.
var renderedMu sync.Mutex
var rendered = map[string]bool{}

func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = e.Make()
	}
	renderedMu.Lock()
	if !rendered[id] {
		rendered[id] = true
		t.Render(os.Stdout)
	}
	renderedMu.Unlock()
	return t
}

// cell parses table cell (r, c) as a float; non-numeric cells return NaN-ish 0.
func cell(t *experiments.Table, r, c int) float64 {
	if r >= len(t.Rows) || c >= len(t.Rows[r]) {
		return 0
	}
	v, err := strconv.ParseFloat(t.Rows[r][c], 64)
	if err != nil {
		return 0
	}
	return v
}

// --- one benchmark per table / figure -------------------------------------

func BenchmarkTable2Datasets(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkFig1DataReuse(b *testing.B)    { runExperiment(b, "fig1") }
func BenchmarkFig5CacheEntries(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkAblationCutoff(b *testing.B)   { runExperiment(b, "ablation-cutoff") }
func BenchmarkAblationOverlap(b *testing.B)  { runExperiment(b, "ablation-overlap") }
func BenchmarkAblationCyclic(b *testing.B)   { runExperiment(b, "ablation-cyclic") }
func BenchmarkAblationScores(b *testing.B)   { runExperiment(b, "ablation-scores") }

func BenchmarkAblationOrientation(b *testing.B) { runExperiment(b, "ablation-orientation") }
func BenchmarkTable3Hash(b *testing.B)          { runExperiment(b, "table3x") }
func BenchmarkAblationPushPull(b *testing.B)    { runExperiment(b, "ablation-pushpull") }
func BenchmarkAblationDelegation(b *testing.B)  { runExperiment(b, "ablation-delegation") }
func BenchmarkAblationRelabel(b *testing.B)     { runExperiment(b, "ablation-relabel") }
func BenchmarkAblationReplication(b *testing.B) { runExperiment(b, "ablation-replication") }

func BenchmarkAblation2D(b *testing.B) {
	t := runExperiment(b, "ablation-2d")
	// Last row = most ranks: columns 3/4 are MB per rank for 1D and 2D.
	if n := len(t.Rows); n > 0 {
		one, two := cell(t, n-1, 3), cell(t, n-1, 4)
		if two > 0 {
			b.ReportMetric(one/two, "1d-vs-2d-traffic-x")
		}
	}
}

func BenchmarkEngine2D(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Run(g, grid.Options{Ranks: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	t := runExperiment(b, "ablation-noise")
	// Last row = highest noise level; column 5 is the BSP penalty factor.
	if n := len(t.Rows); n > 0 {
		b.ReportMetric(cell(t, n-1, 5), "bsp-noise-penalty-x")
	}
}

func BenchmarkAblationDistTC(b *testing.B) {
	t := runExperiment(b, "ablation-disttc")
	// Last row = most ranks; column 4 is "NN%" precompute share.
	if n := len(t.Rows); n > 0 {
		var v float64
		fmt.Sscanf(t.Rows[n-1][4], "%f%%", &v)
		b.ReportMetric(v, "disttc-precompute-%")
	}
}

func BenchmarkFig4DataReuse(b *testing.B) {
	t := runExperiment(b, "fig4")
	// Row 1 is the R-MAT case; column 2 holds "NN.N%".
	if len(t.Rows) > 1 {
		var v float64
		fmt.Sscanf(t.Rows[1][2], "%f%%", &v)
		b.ReportMetric(v, "rmat-top10-%")
	}
}

func BenchmarkTable3Intersection(b *testing.B) {
	t := runExperiment(b, "table3")
	if len(t.Rows) > 0 {
		b.ReportMetric(cell(t, 0, 2), "hybrid-edges/µs")
	}
}

func BenchmarkFig6SharedScaling(b *testing.B) {
	t := runExperiment(b, "fig6")
	// Last row of the first dataset block (threads=16) carries the speedup.
	if len(t.Rows) >= 5 {
		var sp float64
		fmt.Sscanf(t.Rows[4][4], "%fx", &sp)
		b.ReportMetric(sp, "speedup-16t")
	}
}

func BenchmarkFig7CacheSize(b *testing.B) {
	t := runExperiment(b, "fig7")
	// Final C_adj row = full-size cache; column 3 is comm time (ms).
	if n := len(t.Rows); n > 0 {
		b.ReportMetric(cell(t, n-1, 3), "cadj-full-comm-ms")
	}
}

func BenchmarkFig8Scores(b *testing.B) {
	t := runExperiment(b, "fig8")
	if len(t.Rows) >= 2 {
		lru := cell(t, 0, 2)
		deg := cell(t, 1, 2)
		if deg > 0 {
			b.ReportMetric(lru/deg, "read-time-improvement-x")
		}
	}
}

func BenchmarkFig9SmallScale(b *testing.B) {
	t := runExperiment(b, "fig9")
	// First dataset block: rows 0 (p=4) and 4 (p=64), column 2 = non-cached ms.
	if len(t.Rows) >= 5 {
		base, last := cell(t, 0, 2), cell(t, 4, 2)
		if last > 0 {
			b.ReportMetric(base/last, "rmat-speedup-4to64")
		}
	}
}

func BenchmarkFig10LargeScale(b *testing.B) {
	t := runExperiment(b, "fig10")
	if len(t.Rows) >= 3 {
		base, last := cell(t, 0, 2), cell(t, 2, 2)
		if last > 0 {
			b.ReportMetric(base/last, "rmat-speedup-128to512")
		}
	}
}

// --- micro-benchmarks of the hot kernels -----------------------------------

func sortedList(n, stride int) []graph.V {
	out := make([]graph.V, n)
	for i := range out {
		out[i] = graph.V(i * stride)
	}
	return out
}

func BenchmarkIntersectSSI(b *testing.B) {
	x := sortedList(1024, 3)
	y := sortedList(1024, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		intersect.SSI(x, y)
	}
}

func BenchmarkIntersectBinary(b *testing.B) {
	keys := sortedList(64, 37)
	tree := sortedList(4096, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		intersect.Binary(keys, tree)
	}
}

// BenchmarkIntersectHybrid measures the hybrid intersection on the path
// the engines actually execute: the scratch-based host kernels with the
// decoupled Algorithm 1/2 charge (this pair is Binary-charged under
// Eq. (3), so it exercises the depth-table search). The reference
// loops it replaced are tracked by BenchmarkIntersectSSI/Binary above.
func BenchmarkIntersectHybrid(b *testing.B) {
	x := sortedList(256, 7)
	y := sortedList(8192, 2)
	s := intersect.GetScratch()
	defer intersect.PutScratch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Count(intersect.MethodHybrid, x, y)
	}
}

// BenchmarkIntersectSweep is the size-sweep grid of the hybrid kernel
// over |A|,|B| ∈ {16, 256, 4k, 64k} (upper triangle; the dispatch orients
// internally, so the transposed cells are identical). The diagonal cells
// are SSI-charged and engage the stamp set; the skewed cells are
// Binary-charged and engage the depth-table search, or past its 32k-id
// bound the reference Binary loop.
func BenchmarkIntersectSweep(b *testing.B) {
	sizes := []int{16, 256, 4096, 65536}
	for _, na := range sizes {
		for _, nb := range sizes {
			if na > nb {
				continue
			}
			x := sortedList(na, 7)
			y := sortedList(nb, 2)
			b.Run(fmt.Sprintf("a%d_b%d", na, nb), func(b *testing.B) {
				s := intersect.GetScratch()
				defer intersect.PutScratch(s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Count(intersect.MethodHybrid, x, y)
				}
			})
		}
	}
}

// --- per-kernel benches of the host layer ----------------------------------

// BenchmarkKernelMergeBranchFree is the 4-way unrolled branch-free merge
// on the same pair as BenchmarkIntersectSSI (its scalar reference).
func BenchmarkKernelMergeBranchFree(b *testing.B) {
	x := sortedList(1024, 3)
	y := sortedList(1024, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		intersect.MergeCount(x, y)
	}
}

// BenchmarkKernelStampProbe is the amortized stamp-set kernel: the pivot
// is stamped once and every call pays only the probe side plus the
// analytic Algorithm 2 charge — the engines' repeat-pivot pattern.
func BenchmarkKernelStampProbe(b *testing.B) {
	x := sortedList(1024, 3)
	y := sortedList(1024, 5)
	s := intersect.GetScratch()
	defer intersect.PutScratch(s)
	s.Count(intersect.MethodSSI, x, y) // stamp the pivot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Count(intersect.MethodSSI, x, y)
	}
}

// BenchmarkKernelFingerBinary is the cursor + depth-table search
// (depthBinary; bench.sh and the BENCH records key on the old name) on the
// same pair as BenchmarkIntersectBinary (its per-key reference).
func BenchmarkKernelFingerBinary(b *testing.B) {
	keys := sortedList(64, 37)
	tree := sortedList(4096, 3)
	s := intersect.GetScratch()
	defer intersect.PutScratch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Count(intersect.MethodBinary, keys, tree)
	}
}

func BenchmarkIntersectHash(b *testing.B) {
	x := sortedList(256, 7)
	y := sortedList(8192, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		intersect.Hash(x, y)
	}
}

func BenchmarkHashIndexReuse(b *testing.B) {
	// The amortized pattern of the edge-centric engine: build once, probe
	// with many key sets.
	keys := sortedList(256, 7)
	tree := sortedList(8192, 2)
	ix, _ := intersect.BuildHashIndex(tree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.CountKeys(keys)
	}
}

func BenchmarkForwardLCC(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcc.ForwardLCC(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumArcs()), "arcs")
}

func BenchmarkAlgebraicLU(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef8")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spmat.CountLU(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistTC(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disttc.Run(g, disttc.Options{Ranks: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMAAccumulate(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateWindow("bench", [][]byte{nil, make([]byte, 4096)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Accumulate(w, 1, (i%512)*8, 1).Release()
		if i%64 == 63 {
			r.FlushAll(w)
		}
	}
}

func BenchmarkRMAFetchAdd(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateWindow("bench", [][]byte{nil, make([]byte, 8)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FetchAdd64(w, 1, 0, 1)
	}
}

func BenchmarkWattsStrogatz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.WattsStrogatz(4096, 8, 0.1, uint64(i))
	}
}

func BenchmarkRMAGet(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateWindow("bench", [][]byte{nil, make([]byte, 1<<20)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := r.Get(w, 1, (i*64)%(1<<19), 64)
		q.Wait()
		q.Release()
	}
}

func BenchmarkRMAGetReadOnly(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("bench", [][]byte{nil, make([]byte, 1<<20)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := r.Get(w, 1, (i*64)%(1<<19), 64)
		q.Wait()
		q.Release()
	}
}

func BenchmarkClampiHit(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateWindow("bench", [][]byte{nil, make([]byte, 1<<16)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := clampi.New(r, w, clampi.Config{Capacity: 1 << 16, Mode: clampi.AlwaysCache})
	q := c.Get(1, 0, 256)
	q.Wait()
	q.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(1, 0, 256).Release()
	}
}

func BenchmarkClampiMissEvict(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateWindow("bench", [][]byte{nil, make([]byte, 1<<20)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	// Tiny cache: every access misses and evicts.
	c := clampi.New(r, w, clampi.Config{Capacity: 1 << 10, Mode: clampi.AlwaysCache})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := c.Get(1, (i%1024)*512, 512)
		q.Wait()
		q.Release()
	}
}

func BenchmarkSharedLCC(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lcc.SharedLCC(g, intersect.MethodHybrid)
	}
	b.ReportMetric(float64(g.NumArcs()), "arcs")
}

// The two trajectory benchmarks pin Workers: 1 — the serial baseline
// BENCH_1/BENCH_2 recorded (the default went parallel with the rank
// scheduler, so an explicit pin is what keeps the trajectory
// semantically one series). The *Parallel variants below are the
// scaling numbers.
func BenchmarkEngineNonCached(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcc.Run(g, lcc.Options{Ranks: 8, Workers: 1, Method: intersect.MethodHybrid, DoubleBuffer: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineCached(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := lcc.Run(g, lcc.Options{
			Ranks: 8, Workers: 1, Method: intersect.MethodHybrid, DoubleBuffer: true,
			Caching: true, OffsetsCacheBytes: 1 << 18, AdjCacheBytes: 1 << 22,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineNonCachedParallel opens the rank scheduler to every host
// core (Workers=GOMAXPROCS, also the default; explicit so the record is
// self-describing). Results are bit-identical to the serial run; only
// host wall-clock changes, which is why BENCH_*.json records carry
// go_max_procs and benchdiff refuses to compare times across differing
// values.
func BenchmarkEngineNonCachedParallel(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcc.Run(g, lcc.Options{
			Ranks: 8, Workers: runtime.GOMAXPROCS(0),
			Method: intersect.MethodHybrid, DoubleBuffer: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCachedParallel is BenchmarkEngineCached at
// Workers=GOMAXPROCS; see BenchmarkEngineNonCachedParallel.
func BenchmarkEngineCachedParallel(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := lcc.Run(g, lcc.Options{
			Ranks: 8, Workers: runtime.GOMAXPROCS(0),
			Method: intersect.MethodHybrid, DoubleBuffer: true,
			Caching: true, OffsetsCacheBytes: 1 << 18, AdjCacheBytes: 1 << 22,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriC(b *testing.B) {
	g := gen.MustLoad("rmat-s14-ef16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tric.Run(g, tric.Options{Ranks: 8, Method: intersect.MethodHybrid}); err != nil {
			b.Fatal(err)
		}
	}
}
