package rma

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestCountersMergeCoversEveryField fills a Counters with distinct
// non-zero values via reflection and checks Merge propagates each one —
// so a field added to Counters without a Merge line fails here instead of
// silently vanishing from end-of-run rollups.
func TestCountersMergeCoversEveryField(t *testing.T) {
	var src Counters
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Float64:
			f.SetFloat(float64(1000 + i))
		default:
			t.Fatalf("Counters field %s has unhandled kind %v; extend this test and Merge",
				sv.Type().Field(i).Name, f.Kind())
		}
	}

	var dst Counters
	dst.Merge(src)
	if dst != src {
		t.Fatalf("Merge into zero Counters = %+v, want %+v", dst, src)
	}
	dst.Merge(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		switch f := dv.Field(i); f.Kind() {
		case reflect.Int64:
			if want := 2 * sv.Field(i).Int(); f.Int() != want {
				t.Errorf("after double merge, %s = %d, want %d", name, f.Int(), want)
			}
		case reflect.Float64:
			if want := 2 * sv.Field(i).Float(); f.Float() != want {
				t.Errorf("after double merge, %s = %g, want %g", name, f.Float(), want)
			}
		}
	}
}

// TestStagedAccumulateVisibility pins the staged-accumulate contract: a
// remote accumulate is buffered at issue and lands at the origin's flush;
// a same-origin get observes earlier accumulates without an explicit flush
// (program order); and a barrier commits every rank's buffers so
// post-barrier readers see the full sum.
func TestStagedAccumulateVisibility(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)

	// Buffered at issue: the target region is untouched until a flush.
	r.Accumulate(w, 1, 0, 5)
	if got := binary.LittleEndian.Uint64(w.loc[1][0:]); got != 0 {
		t.Fatalf("region modified at issue time: %d, want 0 (staged)", got)
	}
	r.FlushAll(w)
	if got := binary.LittleEndian.Uint64(w.loc[1][0:]); got != 5 {
		t.Fatalf("after FlushAll, region = %d, want 5", got)
	}

	// Same-origin program order: a snapshot get observes the rank's own
	// staged accumulates.
	r.Accumulate(w, 1, 0, 3)
	var q Request
	r.GetInto(&q, w, 1, 0, 8)
	q.Wait()
	if got := binary.LittleEndian.Uint64(q.Data()); got != 8 {
		t.Fatalf("snapshot after own accumulate = %d, want 8", got)
	}
	r.UnlockAll(w)
}

// TestBarrierCommitsStaged checks the barrier commit path: ranks
// accumulate into rank 0's region and rendezvous without flushing; after
// the barrier every contribution is visible.
func TestBarrierCommitsStaged(t *testing.T) {
	const p = 4
	c := NewComm(p, DefaultCostModel())
	w := c.CreateWindow("ctr", [][]byte{make([]byte, 8), nil, nil, nil})
	b := c.NewBarrier()
	mustRun(t, c, func(r *Rank) {
		r.LockAll(w)
		r.Accumulate(w, 0, 0, uint64(r.ID())+1)
		b.Wait(r)
		if r.ID() == 0 {
			var q Request
			r.GetInto(&q, w, 0, 0, 8)
			if got := binary.LittleEndian.Uint64(q.Data()); got != 1+2+3+4 {
				t.Errorf("post-barrier sum = %d, want 10", got)
			}
		}
		b.Wait(r) // keep rank 0's read inside the epoch for all ranks
		r.UnlockAll(w)
	})
}

// TestRunBoundedWorkers checks that Workers=1 and Workers=8 produce
// identical simulated results for a barrier-heavy workload — the
// determinism contract of the scheduler at the substrate level.
func TestRunBoundedWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		c := NewCommWorkers(6, DefaultCostModel(), workers)
		w := c.CreateWindow("w", [][]byte{
			make([]byte, 64), make([]byte, 64), make([]byte, 64),
			make([]byte, 64), make([]byte, 64), make([]byte, 64)})
		b := c.NewBarrier()
		ranks := mustRun(t, c, func(r *Rank) {
			r.LockAll(w)
			for round := 0; round < 3; round++ {
				advanceBy(r, float64((r.ID()+round)%5)*777)
				r.Accumulate(w, (r.ID()+1)%6, 0, 1)
				r.Fence(w, b)
			}
			r.UnlockAll(w)
		})
		out := make([]float64, len(ranks))
		for i, r := range ranks {
			out[i] = r.Now()
		}
		return out
	}
	w1, w8 := run(1), run(8)
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Fatalf("rank %d clock differs across worker counts: %v vs %v", i, w1[i], w8[i])
		}
	}
}
