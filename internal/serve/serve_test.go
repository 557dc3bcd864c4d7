package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The serving layer must hand back bit-identical results run after run —
// canceled, panicked or crash-recovered runs in between may not leak
// state. These constants duplicate the root golden pins for the pull
// configuration (fb-sim, 4 ranks, hybrid, double buffering); golden_test.go
// is their source of truth.
const (
	pinSimBits   = 0x419e343dbb9986d8
	pinLCCBits   = 0x4091b4d6196173a8
	pinTriangles = 351349
	pinSumT      = 1054047
)

var workerSweep = []int{1, 2, 4, 8}

func fbInstance(t *testing.T) *serve.Instance {
	t.Helper()
	inst := serve.NewInstance("fb", serve.Config{Dataset: "fb-sim", Ranks: 4})
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return inst
}

func pullQuery(workers int) serve.Query {
	return serve.Query{Options: lcc.Options{
		Workers: workers, Method: intersect.MethodHybrid, DoubleBuffer: true,
	}}
}

func assertPins(t *testing.T, res *serve.QueryResult) {
	t.Helper()
	if got := math.Float64bits(res.SimTime); got != pinSimBits {
		t.Errorf("SimTime bits = %#x, want %#x", got, uint64(pinSimBits))
	}
	if res.ScoreBits != pinLCCBits {
		t.Errorf("ScoreBits = %#x, want %#x", res.ScoreBits, uint64(pinLCCBits))
	}
	if res.Triangles != pinTriangles {
		t.Errorf("Triangles = %d, want %d", res.Triangles, pinTriangles)
	}
	if res.SumT != pinSumT {
		t.Errorf("SumT = %d, want %d", res.SumT, pinSumT)
	}
}

// TestRunCancellation cancels a run under a recovered crash mid-flight at
// every worker count: the run unwinds with ErrRunCanceled, the instance
// returns to ready, and a rerun reproduces the golden pins bit for bit.
func TestRunCancellation(t *testing.T) {
	for _, w := range workerSweep {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			inst := fbInstance(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var reads int64
			q := pullQuery(w)
			q.Options.Faults = &fault.Spec{CrashAtOp: 300, CrashRank: 1, CrashRecover: true}
			q.Options.OnRemoteRead = func(rank int, v graph.V) {
				if atomic.AddInt64(&reads, 1) == 500 {
					cancel()
				}
			}
			if _, err := inst.Run(ctx, q); !errors.Is(err, sched.ErrRunCanceled) {
				t.Fatalf("canceled run: err = %v, want ErrRunCanceled", err)
			}
			if st := inst.State(); st != serve.StateReady {
				t.Fatalf("state after cancel = %v, want ready", st)
			}
			res, err := inst.Run(context.Background(), pullQuery(w))
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			assertPins(t, res)
			if ctr := inst.Info().Counters; ctr.Canceled != 1 || ctr.Served != 1 {
				t.Errorf("counters = %+v, want Canceled 1, Served 1", ctr)
			}
		})
	}
}

// TestRunCancellationDeadline drives the same path through a per-query
// timeout: the error reports both the cancellation and its deadline cause.
func TestRunCancellationDeadline(t *testing.T) {
	inst := fbInstance(t)
	q := pullQuery(2)
	q.Timeout = time.Millisecond
	_, err := inst.Run(context.Background(), q)
	if !errors.Is(err, sched.ErrRunCanceled) {
		t.Fatalf("err = %v, want ErrRunCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state after deadline = %v, want ready", st)
	}
	res, err := inst.Run(context.Background(), pullQuery(2))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	assertPins(t, res)
}

// TestPanicIsolation injects a worker panic at every worker count: the
// run fails with a *sched.PanicError carrying rank and stack, the process
// lives, the instance flips unhealthy and rejects runs until a Reload
// restores service with golden-pinned bits.
func TestPanicIsolation(t *testing.T) {
	for _, w := range workerSweep {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			inst := fbInstance(t)
			var reads int64
			q := pullQuery(w)
			q.Options.OnRemoteRead = func(rank int, v graph.V) {
				if atomic.AddInt64(&reads, 1) == 300 {
					panic("injected worker bug")
				}
			}
			_, err := inst.Run(context.Background(), q)
			var pe *sched.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *sched.PanicError", err)
			}
			if pe.Rank < 0 || pe.Rank >= 4 {
				t.Errorf("PanicError.Rank = %d, want 0..3", pe.Rank)
			}
			if !strings.Contains(fmt.Sprint(pe.Value), "injected worker bug") {
				t.Errorf("PanicError.Value = %v, want the injected value", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError.Stack is empty")
			}
			if st := inst.State(); st != serve.StateUnhealthy {
				t.Fatalf("state after panic = %v, want unhealthy", st)
			}
			if _, err := inst.Run(context.Background(), pullQuery(w)); !errors.Is(err, serve.ErrUnhealthy) {
				t.Fatalf("run on unhealthy: err = %v, want ErrUnhealthy", err)
			}
			if err := inst.Reload(); err != nil {
				t.Fatalf("Reload: %v", err)
			}
			res, err := inst.Run(context.Background(), pullQuery(w))
			if err != nil {
				t.Fatalf("rerun after reload: %v", err)
			}
			assertPins(t, res)
			if ctr := inst.Info().Counters; ctr.Panicked != 1 || ctr.Served != 1 {
				t.Errorf("counters = %+v, want Panicked 1, Served 1", ctr)
			}
		})
	}
}

// TestCrashStopFailFast: a fail-fast simulated crash is a deterministic
// run outcome — typed, reproducible, and not an instance failure.
func TestCrashStopFailFast(t *testing.T) {
	inst := fbInstance(t)
	q := pullQuery(2)
	q.Options.Faults = &fault.Spec{CrashAtOp: 500, CrashRank: 1}
	_, err := inst.Run(context.Background(), q)
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *fault.CrashError", err)
	}
	if ce.Rank != 1 || ce.Op != 500 {
		t.Errorf("CrashError = rank %d op %d, want rank 1 op 500", ce.Rank, ce.Op)
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state after fail-fast crash = %v, want ready", st)
	}
	// Deterministic: same spec, same error, at a different worker count.
	q2 := pullQuery(4)
	q2.Options.Faults = &fault.Spec{CrashAtOp: 500, CrashRank: 1}
	_, err2 := inst.Run(context.Background(), q2)
	if err2 == nil || err2.Error() != err.Error() {
		t.Errorf("crash error not deterministic: %v vs %v", err, err2)
	}
	res, err := inst.Run(context.Background(), pullQuery(2))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	assertPins(t, res)
}

// TestCrashStopRecovery: under CrashRecover the run completes with
// results bit-identical to the fault-free pins, SimTime ≥ fault-free
// (restart plus redo are charged, never free), reproducible across
// worker counts.
func TestCrashStopRecovery(t *testing.T) {
	inst := fbInstance(t)
	var simBits []uint64
	for _, w := range []int{1, 4} {
		q := pullQuery(w)
		q.Options.Faults = &fault.Spec{CrashAtOp: 500, CrashRank: 1, CrashRecover: true}
		res, err := inst.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("workers=%d: recovered run: %v", w, err)
		}
		if res.Triangles != pinTriangles || res.SumT != pinSumT || res.ScoreBits != pinLCCBits {
			t.Errorf("workers=%d: recovered results drifted: tri %d sumT %d bits %#x",
				w, res.Triangles, res.SumT, res.ScoreBits)
		}
		if ff := math.Float64frombits(pinSimBits); res.SimTime < ff {
			t.Errorf("workers=%d: recovered SimTime %v < fault-free %v", w, res.SimTime, ff)
		}
		simBits = append(simBits, math.Float64bits(res.SimTime))
	}
	if simBits[0] != simBits[1] {
		t.Errorf("recovered SimTime differs across worker counts: %#x vs %#x", simBits[0], simBits[1])
	}
	if st := inst.State(); st != serve.StateReady {
		t.Fatalf("state = %v, want ready", st)
	}
}
