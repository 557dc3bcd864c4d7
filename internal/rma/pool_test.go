package rma

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// TestReadOnlyGetAliasesWindow pins the zero-copy contract: a Get on a
// read-only window returns a view of the target region itself, not a copy.
func TestReadOnlyGetAliasesWindow(t *testing.T) {
	c := testComm(2)
	region := []byte{10, 11, 12, 13}
	w := c.CreateReadOnlyWindow("ro", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	q := r.Get(w, 1, 1, 2)
	q.Wait()
	got := q.Data()
	if &got[0] != &region[1] {
		t.Error("read-only Get copied instead of aliasing the window region")
	}
	if cap(got) != len(got) {
		t.Errorf("view capacity %d leaks past the requested range (len %d)", cap(got), len(got))
	}
	q.Release()
	if got[0] != 11 || got[1] != 12 {
		t.Errorf("view invalid after Release: %v", got)
	}
}

// TestTypedWindows pins byte addressing and aliasing of the typed windows.
func TestTypedWindows(t *testing.T) {
	c := testComm(2)
	u := []uint64{5, 6, 7, 8}
	v := []graph.V{1, 2, 3, 4, 5, 6}
	wu := c.CreateUint64Window("u64", [][]uint64{nil, u})
	wv := c.CreateVertexWindow("verts", [][]graph.V{nil, v})
	if wu.SizeAt(1) != 32 || wv.SizeAt(1) != 24 {
		t.Fatalf("SizeAt = %d/%d, want 32/24 bytes", wu.SizeAt(1), wv.SizeAt(1))
	}
	r := c.Rank(0)
	r.LockAll(wu)
	r.LockAll(wv)
	defer r.UnlockAll(wu)
	defer r.UnlockAll(wv)

	qu := r.Get(wu, 1, 8, 16) // elements 1..2
	qu.Wait()
	if got := qu.Uint64s(); len(got) != 2 || got[0] != 6 || got[1] != 7 || &got[0] != &u[1] {
		t.Errorf("Uint64s = %v (aliased=%v)", got, len(got) == 2 && &got[0] == &u[1])
	}
	qu.Release()

	qv := r.Get(wv, 1, 4, 12) // elements 1..3
	qv.Wait()
	if got := qv.Vertices(); len(got) != 3 || got[0] != 2 || &got[0] != &v[1] {
		t.Errorf("Vertices = %v", got)
	}
	qv.Release()

	mustPanic(t, "misaligned uint64 get", func() { r.Get(wu, 1, 4, 8) })
	mustPanic(t, "Put on read-only window", func() { r.Put(wv, 1, 0, []byte{1}) })
	mustPanic(t, "Accumulate on typed window", func() { r.Accumulate(wu, 1, 0, 1) })
}

// TestWritableGetSnapshots pins the copy semantics writable windows keep:
// the data must reflect the region at issue time even if it changes before
// the flush.
func TestWritableGetSnapshots(t *testing.T) {
	c := testComm(2)
	region := []byte{1, 2, 3, 4}
	w := c.CreateWindow("rw", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	q := r.Get(w, 1, 0, 4)
	region[0] = 99 // direct host-side mutation between issue and flush
	q.Wait()
	if q.Data()[0] != 1 {
		t.Errorf("writable-window Get observed post-issue mutation: %v", q.Data())
	}
	q.Release()
}

// TestRequestPoolRecycles verifies the free-list discipline, including
// fire-and-forget Release of a pending request.
func TestRequestPoolRecycles(t *testing.T) {
	c := testComm(2)
	w := c.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 64)})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)

	q1 := r.Get(w, 1, 0, 8)
	q1.Wait()
	q1.Release()
	q2 := r.Get(w, 1, 8, 8)
	if q1 != q2 {
		t.Error("released request was not recycled")
	}
	mustPanic(t, "double release", func() { q2.Wait(); q2.Release(); q2.Release() })

	// Fire-and-forget: releasing a pending request defers recycling to
	// the completing flush.
	q3 := r.Get(w, 1, 0, 8)
	q3.Release()
	if len(r.free) != 0 {
		t.Error("pending request recycled before completion")
	}
	r.FlushAll(w)
	if len(r.free) != 1 {
		t.Errorf("flush did not recycle auto-freed request (free list: %d)", len(r.free))
	}
}

// TestPendingSwapRemove exercises out-of-order Waits against the
// swap-remove pending list.
func TestPendingSwapRemove(t *testing.T) {
	c := testComm(2)
	w := c.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 64)})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	qs := make([]*Request, 5)
	for i := range qs {
		qs[i] = r.Get(w, 1, 8*i, 8)
	}
	qs[2].Wait()
	qs[0].Wait()
	qs[4].Wait()
	if len(r.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(r.pending))
	}
	r.FlushAll(w)
	for i, q := range qs {
		if !q.Done() {
			t.Errorf("request %d not completed", i)
		}
	}
	if len(r.pending) != 0 {
		t.Errorf("pending not drained: %d", len(r.pending))
	}
}

// TestGetAllocFree is the allocation regression guard of the zero-copy
// substrate: a Get+Wait+Release cycle must not allocate, on any window
// kind (the writable path reuses the request's snapshot buffer), and neither
// may the write side — a staged accumulate with its flush.
func TestGetAllocFree(t *testing.T) {
	c := testComm(2)
	ro := c.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1024)})
	rw := c.CreateWindow("rw", [][]byte{nil, make([]byte, 1024)})
	wu := c.CreateUint64Window("u64", [][]uint64{nil, make([]uint64, 128)})
	wv := c.CreateVertexWindow("verts", [][]graph.V{nil, make([]graph.V, 256)})
	r := c.Rank(0)
	get := func(w *Window) func() {
		return func() { q := r.Get(w, 1, 64, 64); q.Wait(); q.Release() }
	}
	for _, row := range []struct {
		name string
		w    *Window
		f    func()
	}{
		{"readonly Get+Wait+Release", ro, get(ro)},
		{"writable Get+Wait+Release", rw, get(rw)},
		{"uint64 Get+Wait+Release", wu, get(wu)},
		{"vertices Get+Wait+Release", wv, get(wv)},
		{"Accumulate+Release+FlushAll", rw, func() { r.Accumulate(rw, 1, 64, 1).Release(); r.FlushAll(rw) }},
	} {
		r.LockAll(row.w)
		row.f() // warm the pool (first cycle may allocate the request/buffer)
		if got := testing.AllocsPerRun(100, row.f); got != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", row.name, got)
		}
		r.UnlockAll(row.w)
	}
}

// TestGetIntoMatchesGet holds the two ownerships of a get to their one issue
// body: the same stream of local and remote reads, with a fault schedule
// armed, through pooled Get+Wait+Release and through GetInto+Wait on one
// caller-owned request yields equal counters, equal clock bits and equal
// data — and the caller-owned stream never touches the pool or the pending
// list, is invisible to a window flush, and refuses Release.
func TestGetIntoMatchesGet(t *testing.T) {
	region := make([]byte, 1024)
	for i := range region {
		region[i] = byte(i * 3)
	}
	run := func(owned bool) (Counters, uint64, int) {
		c := testComm(2)
		c.SetFaults(&fault.Spec{Seed: 3, GetFailPct: 0.2, SpikePct: 0.1, SpikeNS: 500})
		w := c.CreateWindow("rw", [][]byte{append([]byte(nil), region...), append([]byte(nil), region...)})
		r := c.Rank(0)
		r.LockAll(w)
		defer r.UnlockAll(w)
		var own Request
		sum := 0
		for i := 0; i < 300; i++ {
			q := &own
			if owned {
				r.GetInto(q, w, i%2, (i*8)%960, 64)
			} else {
				q = r.Get(w, i%2, (i*8)%960, 64)
			}
			if owned && i%2 == 1 {
				r.FlushAll(w)
				if q.Done() || len(r.pending) != 0 {
					t.Fatal("a window flush completed a caller-owned request")
				}
			}
			q.Wait()
			sum += int(q.Data()[63])
			if !owned {
				q.Release()
			}
		}
		if owned {
			if len(r.free) != 0 || len(r.pending) != 0 {
				t.Errorf("caller-owned gets left %d pooled and %d pending requests", len(r.free), len(r.pending))
			}
			mustPanic(t, "Release of a caller-owned request", func() { own.Release() })
		}
		return r.Counters(), math.Float64bits(r.Clock().Now()), sum
	}
	pc, pt, ps := run(false)
	oc, ot, os := run(true)
	if pc.Retries == 0 {
		t.Fatal("the fault schedule injected nothing")
	}
	if pc != oc || pt != ot || ps != os {
		t.Errorf("ownerships differ:\n pooled %+v clock %#x sum %d\n owned  %+v clock %#x sum %d", pc, pt, ps, oc, ot, os)
	}
}
