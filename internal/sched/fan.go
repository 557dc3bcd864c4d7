package sched

import (
	"context"
	"runtime"
)

// fanMinWork is the least work, in the caller's elements (vertices plus
// arcs or stream bytes), a Fan must cover before its tasks leave the
// caller's goroutine: below it the pool, the goroutines and their handoffs
// cost about what a second core saves. Measured in fresh processes on a
// two-core host, reading a container and building a snapshot from it (32
// ranks): an Erdős–Rényi graph of 64k arcs built 5 % slower fanned out, one
// of 128k arcs 7-13 % faster, and fb-sim (164k arcs) 9 % faster; from its
// varint container at 4 ranks, as lccd serves it, 38 % faster.
const fanMinWork = 1 << 17

// Fan runs body(i) for every i in [0, n) — the independent tasks of one
// load step, which together touch work elements — on RunCtx's GOMAXPROCS
// slots, and returns when all have finished. Bodies must write disjoint
// outputs. At GOMAXPROCS 1, or below fanMinWork, the bodies run in order
// on the caller's goroutine and no goroutine starts. A body's panic
// surfaces on the caller's goroutine either way: fanned out, as the
// *PanicError RunCtx collected, raised once every body has finished.
func Fan(n, work int, body func(i int)) {
	if n < 2 || work < fanMinWork || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if err := New(0).RunCtx(context.Background(), n, body); err != nil {
		panic(err)
	}
}
