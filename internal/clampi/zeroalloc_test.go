package clampi

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rma"
)

// TestHitAllocFree is the allocation regression guard for the cache's hot
// path: a hit served from a vertex window must not allocate.
func TestHitAllocFree(t *testing.T) {
	_, _, c := vertexSetup(t, 1<<14, Config{Capacity: 1 << 16})
	q := c.Get(1, 0, 256)
	q.Wait()
	q.Release()
	if !resident(c, 1, 0, 256) {
		t.Fatal("warm-up miss was not inserted")
	}
	if got := testing.AllocsPerRun(200, func() {
		hq := c.Get(1, 0, 256)
		hq.Wait()
		_ = hq.Vertices()
		hq.Release()
	}); got != 0 {
		t.Errorf("cache hit allocates %.1f/op, want 0", got)
	}
	if s := c.Stats(); s.Hits < 200 {
		t.Fatalf("the loop did not hit: %+v", s)
	}
}

// TestGetPanicLeavesCacheUsable: the geometry contract panic of a get, or of
// KeyOf, precedes enter(), like Release's, so a caller that recovers it can
// go on using the cache.
func TestGetPanicLeavesCacheUsable(t *testing.T) {
	_, _, c := testSetup(t, 1<<12, Config{Capacity: 1 << 10})
	mustPanicClampi(t, "Get outside the window geometry", func() { c.Get(1, 1<<40, 64) })
	mustPanicClampi(t, "KeyOf outside the window geometry", func() { c.KeyOf(7, 0, 64) })
	q := c.Get(1, 0, 64)
	q.Wait()
	q.Release()
	if !resident(c, 1, 0, 64) || c.Stats().Misses != 1 {
		t.Errorf("after the recovered panics the cache did not serve a get: %+v", c.Stats())
	}
}

// TestTypedWindowCacheServesViews verifies that a cache over a vertex window
// serves hits, completed misses and local bypasses as aliased views of the
// window, and over a compressed window the same lists decoded.
func TestTypedWindowCacheServesViews(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	adj, runs := []graph.V{7, 8, 9, 10}, []uint64{0, 1, 3, 4}
	wv := comm.CreateVertexWindow("adj", [][]graph.V{adj, adj})
	wz := comm.CreateCompressedVertexWindow("adjz", []*graph.CompressedAdj{
		graph.NewCompressedAdj([]uint64{0}, nil),
		graph.NewCompressedAdj(runs, func(i int, _ []graph.V) []graph.V { return adj[runs[i]:runs[i+1]] }),
	})
	r := comm.Rank(0)
	r.LockAll(wv)
	r.LockAll(wz)
	defer r.UnlockAll(wv)
	defer r.UnlockAll(wz)
	cv := New(r, wv, Config{Capacity: 1 << 12})
	cz := New(r, wz, Config{Capacity: 1 << 12})
	for _, tc := range []struct {
		name    string
		c       *Cache
		target  int
		aliased bool
	}{
		{"miss", cv, 1, true}, {"hit", cv, 1, true}, {"local bypass", cv, 0, true},
		{"compressed miss", cz, 1, false}, {"compressed hit", cz, 1, false},
	} {
		q := tc.c.Get(tc.target, 4, 8)
		q.Wait()
		if got := q.Vertices(); !slices.Equal(got, adj[1:3]) || (&got[0] == &adj[1]) != tc.aliased {
			t.Errorf("%s: Vertices = %v, want adj[1:3], aliased %v", tc.name, got, tc.aliased)
		}
		q.Release()
	}
	if s, z := cv.Stats(), cz.Stats(); s.Hits != 1 || s.Misses != 1 || z.Hits != 1 || z.Misses != 1 {
		t.Errorf("stats %+v and %+v, want a miss then a hit in each", s, z)
	}
}

// TestRequestPoolRoundTrip checks request recycling across the get → wait →
// release lifecycle, with requests outstanding together and waited out of
// order: each returns to the free list at its Release, and the steady state
// neither grows nor drains the list.
func TestRequestPoolRoundTrip(t *testing.T) {
	_, _, c := testSetup(t, 1<<12, Config{Capacity: 1 << 12})
	q1 := c.Get(1, 0, 64)
	q2 := c.Get(1, 64, 64)
	q3 := c.Get(1, 128, 64)
	q2.Wait()
	q3.Wait()
	q1.Wait()
	q1.Release()
	q2.Release()
	q3.Release()
	if len(c.reqFree) != 3 {
		t.Errorf("free list = %d, want 3", len(c.reqFree))
	}
	for i := 0; i < 200; i++ {
		q := c.Get(1, (i%32)*128, 128)
		q.Wait()
		q.Release()
	}
	if len(c.reqFree) != 3 {
		t.Errorf("free list = %d after the steady state, want 3", len(c.reqFree))
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNewRefusesWritableWindow: a cache serves read-only windows only, and
// New and Reset say which window they refused.
func TestNewRefusesWritableWindow(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	ww := comm.CreateWindow("counters", [][]byte{nil, make([]byte, 64)})
	r := comm.Rank(0)
	refused := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"counters"`) || !strings.Contains(msg, "writable") {
				t.Errorf("%s: panic %q, want one naming the writable window", name, msg)
			}
		}()
		f()
	}
	refused("New", func() { New(r, ww, Config{Capacity: 1 << 10}) })
	rr, _, c := testSetup(t, 1<<10, Config{Capacity: 1 << 10})
	refused("Reset", func() { c.Reset(rr, ww, Config{Capacity: 1 << 10}) })
	c.Get(1, 0, 64).Wait()
	if !resident(c, 1, 0, 64) {
		t.Error("the refused Reset left the cache unable to serve its own window")
	}
}

// TestMissEvictAllocFree guards the full metadata plane at steady state: a
// workload where every access misses and evicts (tiny cache, wide key set)
// must not allocate once the pools have warmed — records, AVL nodes, heap
// items and requests all recycle. Checked over a byte and a vertex window.
func TestMissEvictAllocFree(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	wb := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<20)})
	wv := comm.CreateVertexWindow("adj", [][]graph.V{nil, make([]graph.V, 1<<18)})
	r := comm.Rank(0)
	r.LockAll(wb)
	r.LockAll(wv)
	defer r.UnlockAll(wb)
	defer r.UnlockAll(wv)
	for name, c := range map[string]*Cache{
		"bytes":    New(r, wb, Config{Capacity: 1 << 10}),
		"vertices": New(r, wv, Config{Capacity: 1 << 10}),
	} {
		i := 0
		cycle := func() {
			q := c.Get(1, (i%1024)*512, 512)
			q.Wait()
			q.Release()
			i++
		}
		for w := 0; w < 2048; w++ {
			cycle() // warm the pools through the full key cycle
		}
		if got := testing.AllocsPerRun(500, cycle); got != 0 {
			t.Errorf("%s: steady-state miss+evict allocates %.1f/op, want 0", name, got)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Flush empties the cache in place, as Reset does under a new
// configuration: the churns that must refill a cache call it.
func (c *Cache) Flush() { c.empty() }

// TestEpochFlushAllocFree: emptying a cache (Flush, the body of Reset) must
// clear the table, allocator and heap in place, so a steady fill-and-flush
// loop allocates nothing (the seed rebuilt table+allocator on every flush).
func TestEpochFlushAllocFree(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<16)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 12})
	epoch := func() {
		for i := 0; i < 16; i++ {
			q := c.Get(1, i*256, 256)
			q.Wait()
			q.Release()
		}
		c.Flush()
	}
	for i := 0; i < 8; i++ {
		epoch()
	}
	if got := testing.AllocsPerRun(100, epoch); got != 0 {
		t.Errorf("steady-state fill and flush allocates %.1f/op, want 0", got)
	}
	if s := c.Stats(); s.Misses == 0 || s.Hits != 0 {
		t.Fatalf("the loop must flush every entry before its next get: %+v", s)
	}
}

// TestZeroKeyIsNeverAHit pins the empty-slot-sentinel guard: the packed
// key 0 (a size-0 get of target 0, offset 0, issued from another rank) is
// a legal access the seed served as an ordinary miss, and must not match
// empty table slots.
func TestZeroKeyIsNeverAHit(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{make([]byte, 64), make([]byte, 64)})
	r := comm.Rank(1) // target 0 is remote from rank 1
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 10})
	if resident(c, 0, 0, 0) {
		t.Fatal("empty cache claims to contain the zero key")
	}
	q := c.Get(0, 0, 0)
	q.Wait()
	q.Release()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.RejectedInserts != 1 {
		t.Errorf("zero-key stats = %+v, want 1 miss, 1 rejected insert, 0 hits", s)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustPanicClampi(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
