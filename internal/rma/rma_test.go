package rma

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func testComm(p int) *Comm { return NewComm(p, DefaultCostModel()) }

// mustRun is Comm.RunCtx for a body that must complete: any run error fails t.
func mustRun(t *testing.T, c *Comm, body func(r *Rank)) []*Rank {
	t.Helper()
	ranks, err := c.RunCtx(context.Background(), body)
	if err != nil {
		t.Fatalf("RunCtx = %v", err)
	}
	return ranks
}

func twoRankWindow(t *testing.T, c *Comm) *Window {
	t.Helper()
	return c.CreateWindow("w", [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{10, 11, 12, 13},
	})
}

func TestGetRemoteReadsBytesAndChargesCost(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	r.LockAll(w)
	var q Request
	r.GetInto(&q, w, 1, 1, 3)
	if q.done {
		t.Fatal("remote get completed before its Wait")
	}
	q.Wait()
	if got, want := q.Data(), []byte{11, 12, 13}; !reflect.DeepEqual(got, want) {
		t.Errorf("Data = %v, want %v", got, want)
	}
	m := DefaultCostModel()
	want := m.RemoteCost(3)
	if got := r.Now(); math.Abs(got-want) > 1e-9 {
		t.Errorf("clock = %v, want %v (α+3β)", got, want)
	}
	ctr := r.Counters()
	if ctr.Gets != 1 || ctr.RemoteBytes != 3 {
		t.Errorf("counters = %+v", ctr)
	}
	r.UnlockAll(w)
}

func TestGetLocalIsCheapAndImmediate(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	r.LockAll(w)
	var q Request
	r.GetInto(&q, w, 0, 2, 4)
	if !q.done {
		t.Fatal("local get should complete immediately")
	}
	if got, want := q.Data(), []byte{2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Data = %v, want %v", got, want)
	}
	if r.Now() >= DefaultCostModel().RemoteLatency {
		t.Errorf("local read cost %v should be far below remote latency", r.Now())
	}
	ctr := r.Counters()
	if ctr.LocalGets != 1 || ctr.Gets != 0 {
		t.Errorf("counters = %+v", ctr)
	}
	r.UnlockAll(w)
}

func TestNonBlockingOverlap(t *testing.T) {
	// Issue an accumulate, compute for longer than the transfer, flush: the
	// flush must not add time (communication fully hidden), matching the
	// overlap rationale of §III-A.
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)
	accumulate(r, w, 1, 0, 1)
	m := DefaultCostModel()
	advanceBy(r, 2*m.RemoteCost(updateWireBytes))
	before := r.Now()
	r.FlushAll(w)
	if r.Now() != before {
		t.Errorf("flush added %v ns although compute covered the transfer", r.Now()-before)
	}
	if wait := r.Counters().FlushWait; wait != 0 {
		t.Errorf("FlushWait = %v, want 0", wait)
	}
	r.UnlockAll(w)
}

func TestFlushWaitsForSlowTransfer(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)
	accumulate(r, w, 1, 0, 1)
	r.FlushAll(w)
	m := DefaultCostModel()
	want := m.RemoteCost(updateWireBytes)
	if got := r.Counters().FlushWait; math.Abs(got-want) > 1e-9 {
		t.Errorf("FlushWait = %v, want %v", got, want)
	}
	r.UnlockAll(w)
}

// TestRequestWaitSingle: a Wait completes its own get only, and a window
// flush completes none.
func TestRequestWaitSingle(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	r.LockAll(w)
	var q1, q2 Request
	r.GetInto(&q1, w, 1, 0, 2)
	r.GetInto(&q2, w, 1, 2, 2)
	q1.Wait()
	if !q1.done || q2.done {
		t.Fatalf("Wait completed wrong requests: q1=%v q2=%v", q1.done, q2.done)
	}
	r.FlushAll(w)
	if q2.done {
		t.Fatal("a window flush completed a get")
	}
	q2.Wait()
	if got, want := q2.Data(), []byte{12, 13}; !reflect.DeepEqual(got, want) {
		t.Errorf("Data = %v, want %v", got, want)
	}
	r.UnlockAll(w)
}

func TestEpochDiscipline(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	var q Request
	mustPanic(t, "Get outside epoch", func() { r.GetInto(&q, w, 1, 0, 1) })
	mustPanic(t, "FlushAll outside epoch", func() { r.FlushAll(w) })
	r.LockAll(w)
	mustPanic(t, "double LockAll", func() { r.LockAll(w) })
	r.UnlockAll(w)
	mustPanic(t, "UnlockAll without epoch", func() { r.UnlockAll(w) })
}

func TestGetBoundsChecked(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	var q Request
	mustPanic(t, "get past end", func() { r.GetInto(&q, w, 1, 2, 10) })
	mustPanic(t, "negative offset", func() { r.GetInto(&q, w, 1, -1, 1) })
}

func TestDataBeforeFlushPanics(t *testing.T) {
	c := testComm(2)
	w := twoRankWindow(t, c)
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	var q Request
	r.GetInto(&q, w, 1, 0, 2)
	mustPanic(t, "Data before Wait", func() { q.Data() })
}

func TestRunExecutesAllRanksConcurrently(t *testing.T) {
	c := testComm(8)
	var visited int64
	ranks := mustRun(t, c, func(r *Rank) {
		atomic.AddInt64(&visited, 1)
		r.Compute(1000)
	})
	if visited != 8 {
		t.Fatalf("RunCtx visited %d ranks, want 8", visited)
	}
	want := 1000 * DefaultCostModel().ComputePerOp
	for _, r := range ranks {
		if got := r.Now(); math.Abs(got-want) > 1e-9 {
			t.Errorf("rank %d clock = %v, want %v", r.ID(), got, want)
		}
	}
	if got := MaxClock(ranks); math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxClock = %v, want %v", got, want)
	}
}

func TestWindowPerRankSizes(t *testing.T) {
	c := testComm(3)
	w := c.CreateWindow("var", [][]byte{make([]byte, 10), nil, make([]byte, 5)})
	if w.SizeAt(0) != 10 || w.SizeAt(1) != 0 || w.SizeAt(2) != 5 {
		t.Errorf("SizeAt = %d/%d/%d", w.SizeAt(0), w.SizeAt(1), w.SizeAt(2))
	}
	if w.Name() != "var" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestCreateWindowValidatesRankCount(t *testing.T) {
	c := testComm(2)
	mustPanic(t, "wrong region count", func() { c.CreateWindow("bad", [][]byte{nil}) })
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		return reflect.DeepEqual(DecodeUint64s(EncodeUint64s(vals)), append([]uint64{}, vals...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(vals []uint32) bool {
		vs := make([]graph.V, len(vals))
		for i, v := range vals {
			vs[i] = graph.V(v)
		}
		dec := DecodeVertices(EncodeVertices(vs))
		if len(dec) != len(vs) {
			return false
		}
		for i := range dec {
			if dec[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCostModelShape(t *testing.T) {
	m := DefaultCostModel()
	// Remote reads are orders of magnitude above DRAM (§III-B).
	if m.RemoteCost(8) < 10*m.LocalCost(8) {
		t.Errorf("remote cost %v not >> local cost %v", m.RemoteCost(8), m.LocalCost(8))
	}
	// Cache hits are far cheaper than remote reads.
	if m.HitCost(1024) > m.RemoteCost(1024)/5 {
		t.Errorf("hit cost %v too close to remote cost %v", m.HitCost(1024), m.RemoteCost(1024))
	}
	// Cost is monotone in size.
	if m.RemoteCost(100) <= m.RemoteCost(10) {
		t.Errorf("remote cost not monotone")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
