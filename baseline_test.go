package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/disttc"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/tric"
)

// TestBaselineSimTimeBits pins what the fault-free golden table cannot see,
// as SimTime float bits and the triangle count on fb-sim at 4 ranks, at one
// and at four workers. First the two-sided baselines over internal/p2p:
// TriC, TriC-Buffered (cmd/compare's 256 KiB per-peer buffer) and DistTC;
// those bits were recorded while p2p still deferred its charges to a tape
// folded at clock reads, and folding each charge where it is made must
// reproduce them exactly. Then the
// push engine's write path under accumulate failures, direct and batched:
// the fault draws key on the class value, and a remote write's flush waits
// on its retried completion, so a renumbered fault class or a changed flush
// rule moves these bits.
func TestBaselineSimTimeBits(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	tricRun := func(opt tric.Options) func(int) (float64, int64) {
		return func(workers int) (float64, int64) {
			opt.Ranks, opt.Workers, opt.Method = 4, workers, intersect.MethodHybrid
			res := tric.MustRun(g, opt)
			return res.SimTime, res.Triangles
		}
	}
	pushRun := func(agg lcc.PushAggregation) func(int) (float64, int64) {
		return func(workers int) (float64, int64) {
			opt := goldenBase()
			opt.Workers = workers
			opt.Faults = &fault.Spec{Seed: 5, AccFailPct: 0.05}
			res, err := lcc.RunPush(g, lcc.PushOptions{Options: opt, Aggregation: agg})
			if err != nil {
				t.Fatal(err)
			}
			return res.SimTime, res.Triangles
		}
	}
	cases := []struct {
		name string
		run  func(workers int) (float64, int64)
		bits uint64
	}{
		{"tric", tricRun(tric.Options{}), 0x41aed6d3c1999998},
		{"tric-buffered", tricRun(tric.Options{Buffered: true, BufferBytes: 256 << 10}), 0x41ae6c3c7a333330},
		{"disttc", func(workers int) (float64, int64) {
			res := disttc.MustRun(g, disttc.Options{Ranks: 4, Workers: workers})
			return res.SimTime, res.Triangles
		}, 0x4136d4a5cccccccc},
		{"push-direct/acc", pushRun(lcc.PushDirect), 0x41b03b873e3324e6},
		{"push-batched/acc", pushRun(lcc.PushBatched), 0x418f03fb880008fd},
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, tc := range cases {
				sim, tri := tc.run(workers)
				if got := math.Float64bits(sim); got != tc.bits {
					t.Errorf("%s: SimTime bits = %#x, want %#x (Δ=%g ns)", tc.name, got, tc.bits, sim-math.Float64frombits(tc.bits))
				}
				if tri != goldenTriangles {
					t.Errorf("%s: Triangles = %d, want %d", tc.name, tri, goldenTriangles)
				}
			}
		})
	}
}
