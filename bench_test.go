// Micro-benchmarks of the hot kernels and substrates, plus the end-to-end
// engine runs. They carry no claim — host-speed claims go through
// BENCHMARK.json and `make bench-ab` — and no gate: the zero-alloc budgets
// they sit beside are tier-1 tests (TestGetAllocFree, TestHitAllocFree,
// TestEngineFetchAllocFree, TestEngineCachedAllocBudget). CI runs each once
// (-benchtime=1x) so none rots. The paper's tables and figures are
// cmd/figures' (internal/experiments), asserted by shape_test.go there.
package repro_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/clampi"
	"repro/internal/disttc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/rma"
	"repro/internal/tric"
)

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
// (depthBinary; the name predates it) on the same pair as
// BenchmarkIntersectBinary (its per-key reference).
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
		r.Accumulate(w, 1, (i%512)*8, 1)
		if i%64 == 63 {
			r.FlushAll(w)
		}
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
	var q rma.Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.GetInto(&q, w, 1, (i*64)%(1<<19), 64)
		q.Wait()
	}
}

func BenchmarkRMAGetReadOnly(b *testing.B) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("bench", [][]byte{nil, make([]byte, 1<<20)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	var q rma.Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.GetInto(&q, w, 1, (i*64)%(1<<19), 64)
		q.Wait()
	}
}

// The CLaMPI benchmarks time KeyOf + Decide, the engines' path (lcc's
// decision pass): the cache transitions alone, no charge and no get.
func BenchmarkClampiHit(b *testing.B) {
	c := benchCache(1<<16, clampi.Config{Capacity: 1 << 16})
	c.Decide(c.KeyOf(1, 0, 256), math.NaN(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decide(c.KeyOf(1, 0, 256), math.NaN(), false)
	}
}

func BenchmarkClampiMissEvict(b *testing.B) {
	// Tiny cache: every access misses and evicts.
	c := benchCache(1<<20, clampi.Config{Capacity: 1 << 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decide(c.KeyOf(1, (i%1024)*512, 512), math.NaN(), false)
	}
}

// BenchmarkClampiCapacitySettle runs C_offsets' geometry — a 256 KiB buffer
// of 16-byte LRU entries over 16,384 buckets — on a uniform stream over
// twice as many regions as it holds: about half the accesses hit, and every
// miss takes a capacity eviction. "cache" is a CLaMPI Cache, whose victim
// heap is sixteen thousand entries deep and revalidates the stale roots the
// hits left (Cache.settleVictims); "onesize" is the exact model the engines
// run for C_offsets (clampi.OneSize), which picks the same victims from an
// LRU list.
func BenchmarkClampiCapacitySettle(b *testing.B) {
	const capacity, size = 256 << 10, 16
	cfg := clampi.Config{Capacity: capacity, Buckets: capacity / size}
	rng := rand.New(rand.NewPCG(1, 2))
	offs := make([]int, 1<<16)
	for i := range offs {
		offs[i] = size * rng.IntN(2*capacity/size)
	}
	b.Run("cache", func(b *testing.B) {
		c := benchCache(2*capacity, cfg)
		for i := range offs {
			c.Decide(c.KeyOf(1, offs[i], size), math.NaN(), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Decide(c.KeyOf(1, offs[i%len(offs)], size), math.NaN(), false)
		}
	})
	b.Run("onesize", func(b *testing.B) {
		comm := rma.NewComm(2, rma.DefaultCostModel())
		w := comm.CreateReadOnlyWindow("bench", [][]byte{nil, make([]byte, 2*capacity)})
		m := clampi.NewOneSize(w, 2, cfg)
		for i := range offs {
			m.Decide(m.KeyOf(1, offs[i], size), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Decide(m.KeyOf(1, offs[i%len(offs)], size), false)
		}
	})
}

// benchCache is a cache for rank 0 of a two-rank world over rank 1's region
// of region read-only bytes.
func benchCache(region int, cfg clampi.Config) *clampi.Cache {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("bench", [][]byte{nil, make([]byte, region)})
	return clampi.New(comm.Rank(0), w, cfg)
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

// The two serial engine benchmarks pin Workers: 1 (the default went
// parallel with the rank scheduler); the *Parallel variants below are the
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
// host wall-clock changes.
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
