package rma

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestReadOnlyGetAliasesWindow pins the zero-copy contract: a get on a
// read-only window returns a view of the target region itself, not a copy.
func TestReadOnlyGetAliasesWindow(t *testing.T) {
	c := testComm(2)
	region := []byte{10, 11, 12, 13}
	w := c.CreateReadOnlyWindow("ro", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	var q Request
	r.GetInto(&q, w, 1, 1, 2)
	q.Wait()
	got := q.Data()
	if &got[0] != &region[1] {
		t.Error("read-only get copied instead of aliasing the window region")
	}
	if cap(got) != len(got) {
		t.Errorf("view capacity %d leaks past the requested range (len %d)", cap(got), len(got))
	}
	r.GetInto(&q, w, 1, 0, 1)
	q.Wait()
	if got[0] != 11 || got[1] != 12 {
		t.Errorf("view invalid after the request's next get: %v", got)
	}
}

// TestTypedWindows pins byte addressing and aliasing of the typed windows.
func TestTypedWindows(t *testing.T) {
	c := testComm(2)
	u := []uint64{5, 6, 7, 8}
	v := []graph.V{1, 2, 3, 4, 5, 6}
	wu := c.CreateOffsetsWindow("offsets", [][]uint64{nil, u})
	wv := c.CreateVertexWindow("verts", [][]graph.V{nil, v})
	if wu.SizeAt(0) != 0 || wu.SizeAt(1) != 48 || wv.SizeAt(1) != 24 {
		t.Fatalf("SizeAt = %d, %d/%d, want 0, 48/24 bytes", wu.SizeAt(0), wu.SizeAt(1), wv.SizeAt(1))
	}
	r := c.Rank(0)
	r.LockAll(wu)
	r.LockAll(wv)
	defer r.UnlockAll(wu)
	defer r.UnlockAll(wv)

	var q Request
	r.GetInto(&q, wu, 1, 16, 16) // record 1: (offsets[1], offsets[2])
	q.Wait()
	if got := q.Uint64s(); len(got) != 2 || got[0] != 6 || got[1] != 7 || &got[0] != &u[1] || cap(got) != 2 {
		t.Errorf("Uint64s = %v (aliased=%v)", got, len(got) == 2 && &got[0] == &u[1])
	}
	r.GetInto(&q, wu, 1, 48, 0)
	q.Wait()
	if got := q.Uint64s(); len(got) != 0 {
		t.Errorf("zero-byte get = %v, want empty", got)
	}

	r.GetInto(&q, wv, 1, 4, 12) // elements 1..3
	q.Wait()
	if got := q.Vertices(); len(got) != 3 || got[0] != 2 || &got[0] != &v[1] {
		t.Errorf("Vertices = %v", got)
	}

	for _, at := range [][2]int{{8, 16}, {0, 32}, {16, 8}} {
		mustPanic(t, fmt.Sprintf("offsets get [%d:+%d)", at[0], at[1]), func() { r.GetInto(&q, wu, 1, at[0], at[1]) })
	}
	mustPanic(t, "Accumulate on typed window", func() { r.Accumulate(wu, 1, 0, 1) })
}

// TestWritableGetSnapshots pins the copy semantics writable windows keep:
// the data must reflect the region at issue time even if it changes before
// the Wait.
func TestWritableGetSnapshots(t *testing.T) {
	c := testComm(2)
	region := []byte{1, 2, 3, 4}
	w := c.CreateWindow("rw", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	var q Request
	r.GetInto(&q, w, 1, 0, 4)
	region[0] = 99 // direct host-side mutation between issue and Wait
	q.Wait()
	if q.Data()[0] != 1 {
		t.Errorf("writable-window get observed post-issue mutation: %v", q.Data())
	}
}

// TestGetAllocFree is the allocation regression guard of the zero-copy
// substrate: a GetInto+Wait cycle must not allocate, on any window kind (the
// writable path reuses the request's snapshot buffer), and neither may the
// write side — a staged accumulate with its flush.
func TestGetAllocFree(t *testing.T) {
	c := testComm(2)
	ro := c.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1024)})
	rw := c.CreateWindow("rw", [][]byte{nil, make([]byte, 1024)})
	wu := c.CreateOffsetsWindow("offsets", [][]uint64{nil, make([]uint64, 128)})
	wv := c.CreateVertexWindow("verts", [][]graph.V{nil, make([]graph.V, 256)})
	r := c.Rank(0)
	var q Request
	get := func(w *Window) func() {
		size := 64
		if w == wu {
			size = 16 // one (start,end) record
		}
		return func() { r.GetInto(&q, w, 1, 64, size); q.Wait() }
	}
	for _, row := range []struct {
		name string
		w    *Window
		f    func()
	}{
		{"readonly GetInto+Wait", ro, get(ro)},
		{"writable GetInto+Wait", rw, get(rw)},
		{"offsets GetInto+Wait", wu, get(wu)},
		{"vertices GetInto+Wait", wv, get(wv)},
		{"Accumulate+FlushAll", rw, func() { r.Accumulate(rw, 1, 64, 1); r.FlushAll(rw) }},
	} {
		r.LockAll(row.w)
		row.f() // warm up (the first cycle may grow the snapshot or staging buffer)
		if got := testing.AllocsPerRun(100, row.f); got != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", row.name, got)
		}
		r.UnlockAll(row.w)
	}
}
