// Engine-level guards for the cost-decoupled intersection layer
// (DESIGN.md §5): orientation assertions armed across every engine, and
// scratch-pool reuse under the worker sweep.
package repro_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/disttc"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/tric"
)

// TestEngineOrientation arms the binary-search orientation assertion
// (Binary does not swap its arguments on its own) and drives every engine
// through the kernels with every method, proving mis-orientation is
// impossible from engine code: the Count/Elements dispatchers always hand
// the shorter list to the keys side.
func TestEngineOrientation(t *testing.T) {
	intersect.SetDebugChecks(true)
	defer intersect.SetDebugChecks(false)

	g := gen.MustLoad("fb-sim")
	for _, m := range []intersect.Method{
		intersect.MethodSSI, intersect.MethodBinary, intersect.MethodHybrid,
	} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			lcc.SharedLCC(g, m)
			opt := lcc.Options{Ranks: 4, Method: m, DoubleBuffer: true}
			if _, err := lcc.Run(g, opt); err != nil {
				t.Fatal(err)
			}
			if _, err := lcc.RunPush(g, lcc.PushOptions{Options: opt, Aggregation: lcc.PushBatched}); err != nil {
				t.Fatal(err)
			}
			if _, err := lcc.RunReplicated(g, lcc.ReplicatedOptions{Options: opt, Replication: 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := lcc.RunJaccard(g, opt); err != nil {
				t.Fatal(err)
			}
			if _, err := tric.Run(g, tric.Options{Ranks: 4, Method: m}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := disttc.Run(g, disttc.Options{Ranks: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := grid.Run(g, grid.Options{Ranks: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuseWorkerSweep guards the pooled per-rank scratches under
// real parallelism: at Workers ∈ {1, 2, 4, 8}, repeated engine runs must
// reuse the pool (bounded allocations after warm-up) and stay bit-exact
// run over run — a stale stamp or a scratch shared across ranks would
// change counts or trip the race detector.
func TestScratchReuseWorkerSweep(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	workerCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for _, wk := range workerCounts {
		wk := wk
		t.Run(fmt.Sprintf("workers=%d", wk), func(t *testing.T) {
			opt := lcc.Options{Ranks: 4, Workers: wk, Method: intersect.MethodHybrid, DoubleBuffer: true}
			base, err := lcc.Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := lcc.Run(g, opt)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := math.Float64bits(res.SimTime), math.Float64bits(base.SimTime); got != want {
				t.Errorf("SimTime bits changed across runs: %#x vs %#x", got, want)
			}
			if res.Triangles != base.Triangles {
				t.Errorf("Triangles changed across runs: %d vs %d", res.Triangles, base.Triangles)
			}
			// The budget matches TestEngineFetchAllocFree: setup only, no
			// per-intersection or per-scratch growth — the pool must hand
			// back warmed instances at every worker count.
			if allocs := m1.Mallocs - m0.Mallocs; allocs > 5000 {
				t.Errorf("second run allocated %d objects, budget 5000: scratch pool reuse broken", allocs)
			}
		})
	}
}

// TestCompressedLocalsRankDispatch drives DESIGN.md §9's sharp edge through
// the rank-indexed kernel: with StorageCompressed locals every pivot is
// decoded into the same buffer, so consecutive pivots share a slice
// identity, and the Unstamp in the engine's adjOwned must drop the rank
// index together with the stamp. MethodBinary sends every pair through the
// Algorithm 1 dispatch, MethodHybrid is the golden pull configuration; the
// bits are the pins of the plain-storage engines.
func TestCompressedLocalsRankDispatch(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, tc := range []struct {
		method  intersect.Method
		simBits uint64
	}{
		{intersect.MethodHybrid, 0x419e343dbb9986d8}, // goldenConfigs "pull"
		{intersect.MethodBinary, 0x419ea7a3ab99865f}, // same configuration, read at PR 11
	} {
		for _, wk := range []int{1, 4} {
			res, err := lcc.Run(g, lcc.Options{Ranks: 4, Workers: wk, Method: tc.method,
				DoubleBuffer: true, Storage: lcc.StorageCompressed})
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.SimTime); got != tc.simBits {
				t.Errorf("%v workers=%d: SimTime bits = %#x, want %#x", tc.method, wk, got, tc.simBits)
			}
			if res.Triangles != goldenTriangles || res.SumT != goldenSumT {
				t.Errorf("%v workers=%d: Triangles/SumT = %d/%d, want %d/%d", tc.method, wk,
					res.Triangles, res.SumT, goldenTriangles, goldenSumT)
			}
		}
	}
}
