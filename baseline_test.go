package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/disttc"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/tric"
)

// TestBaselineSimTimeBits pins the two-sided baselines over internal/p2p the
// way golden_test.go pins the RMA engines: SimTime float bits and the
// triangle count of TriC, TriC-Buffered (cmd/compare's 256 KiB per-peer
// buffer) and DistTC on fb-sim at 4 ranks, at one and at four workers, plus
// TriC under a message-drop schedule. The bits were recorded while p2p still
// deferred its charges to a tape folded at clock reads; folding each charge
// where it is made must reproduce them exactly.
func TestBaselineSimTimeBits(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	tricRun := func(opt tric.Options) func(int) (float64, int64) {
		return func(workers int) (float64, int64) {
			opt.Ranks, opt.Workers, opt.Method = 4, workers, intersect.MethodHybrid
			res := tric.MustRun(g, opt)
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
		{"tric-drops", tricRun(tric.Options{Faults: &fault.Spec{Seed: 11, DropPct: 0.2}}), 0x41bc72a619ffff84},
		{"disttc", func(workers int) (float64, int64) {
			res := disttc.MustRun(g, disttc.Options{Ranks: 4, Workers: workers})
			return res.SimTime, res.Triangles
		}, 0x4136d4a5cccccccc},
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
