package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/intersect"
	"repro/internal/tric"
)

// TestBaselineSimTimeBits pins what the fault-free golden table cannot see,
// as SimTime float bits and the triangle count on fb-sim at 4 ranks, at one
// and at four workers. First the two-sided baselines: TriC and
// TriC-Buffered (cmd/compare's 256 KiB per-peer buffer); those bits were
// recorded while their substrate still deferred its charges to a tape
// folded at clock reads, and folding each charge where it is made must
// reproduce them exactly.
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
