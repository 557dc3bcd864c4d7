package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFanRunsEveryTaskOnce: every index runs exactly once at any width, and
// no goroutine is started at GOMAXPROCS 1 or below fanMinWork.
func TestFanRunsEveryTaskOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs, work int
		inline      bool
	}{{1, fanMinWork, true}, {4, fanMinWork - 1, true}, {4, fanMinWork, false}} {
		runtime.GOMAXPROCS(c.procs)
		const n = 37
		var runs [n]atomic.Int32
		before := runtime.NumGoroutine()
		var spawned atomic.Bool
		Fan(n, c.work, func(i int) {
			runs[i].Add(1)
			if runtime.NumGoroutine() != before {
				spawned.Store(true)
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("GOMAXPROCS %d, work %d: task %d ran %d times", c.procs, c.work, i, got)
			}
		}
		if spawned.Load() == c.inline {
			t.Errorf("GOMAXPROCS %d, work %d: goroutines started = %v, want %v", c.procs, c.work, spawned.Load(), !c.inline)
		}
	}
}

// TestFanPanicReachesCaller: a task's panic surfaces on the caller's
// goroutine after every other task has run — the value itself inline, the
// *PanicError holding it fanned out — instead of killing the process.
func TestFanPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			Fan(8, fanMinWork, func(i int) {
				ran.Add(1)
				if i == 5 {
					panic("task 5 failed")
				}
			})
			return nil
		}()
		var pe *PanicError
		if err, ok := got.(error); ok && errors.As(err, &pe) {
			got = pe.Value
		}
		if fmt.Sprint(got) != "task 5 failed" {
			t.Errorf("GOMAXPROCS %d: caller recovered %v, want the task's panic", procs, got)
		}
		if procs > 1 && ran.Load() != 8 {
			t.Errorf("GOMAXPROCS %d: %d of 8 tasks ran before the panic surfaced", procs, ran.Load())
		}
	}
}
