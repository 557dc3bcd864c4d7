package clampi

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rma"
)

// TestHitAllocFree is the allocation regression guard for the cache's hot
// path: a hit served from a read-only window must not allocate.
func TestHitAllocFree(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<16)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 16})
	q := c.Get(1, 0, 256)
	q.Wait()
	q.Release()
	if !c.Contains(1, 0, 256) {
		t.Fatal("warm-up miss was not inserted")
	}
	if got := testing.AllocsPerRun(200, func() {
		hq := c.Get(1, 0, 256)
		_ = hq.Data()
		hq.Release()
	}); got != 0 {
		t.Errorf("cache hit allocates %.1f/op, want 0", got)
	}
}

// TestGetIntoAllocFree guards the caller-owned ownership: a hit and a
// miss + Wait through GetInto allocate nothing and leave the pooled
// ownership's free list — and, once waited, the in-flight count — untouched.
func TestGetIntoAllocFree(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<16)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 10})
	var q Request
	c.GetInto(&q, 1, 0, 256, math.NaN())
	if q.Hit() || c.inflight != 1 {
		t.Fatalf("first access: hit %v, inflight %d; want a miss in flight", q.Hit(), c.inflight)
	}
	q.Wait()
	if got := testing.AllocsPerRun(200, func() {
		c.GetInto(&q, 1, 0, 256, math.NaN())
		if !q.Hit() {
			t.Fatal("GetInto missed a resident region")
		}
		_ = q.Data()
	}); got != 0 {
		t.Errorf("GetInto hit allocates %.1f/op, want 0", got)
	}
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		i++
		c.GetInto(&q, 1, (i%64)*1024, 512, float64(i)) // 1 KiB cache: misses and evicts
		q.Wait()
		_ = q.Data()
	}); got != 0 {
		t.Errorf("GetInto miss+Wait allocates %.1f/op, want 0", got)
	}
	if s := c.Stats(); s.Misses < 200 || s.CapacityEvictions == 0 {
		t.Fatalf("the miss loop did not miss and evict: %+v", s)
	}
	if len(c.reqFree) != 0 || c.inflight != 0 {
		t.Errorf("caller-owned gets left reqFree %d, inflight %d; want both zero", len(c.reqFree), c.inflight)
	}
	mustPanicClampi(t, "Release of a caller-owned request", func() { q.Release() })
	if c.busy {
		t.Error("the Release contract panic left the cache busy")
	}
}

// TestGetIntoMatchesGet pins the two ownerships to one behaviour: the same
// scored access stream through pooled GetScored+Wait+Release and through
// GetInto+Wait on one caller-owned request yields equal statistics, equal
// clock bits, equal residency and equal data, over every read-only window
// kind.
func TestGetIntoMatchesGet(t *testing.T) {
	const region = 1 << 14
	raw := make([]byte, region)
	u64s := make([]uint64, region/8)
	verts := make([]graph.V, region/4)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	for i := range u64s {
		u64s[i] = uint64(i) * 3
	}
	// Sorted runs of 16 vertices, one per 64-byte slot: the unit the stream
	// fetches and the compressed container addresses.
	offsets := make([]uint64, 0, len(verts)/16+1)
	for i := range verts {
		verts[i] = graph.V(i * 5)
		if i%16 == 0 {
			offsets = append(offsets, uint64(i))
		}
	}
	offsets = append(offsets, uint64(len(verts)))
	kinds := map[string]func(*rma.Comm) *rma.Window{
		"readonly-bytes": func(c *rma.Comm) *rma.Window { return c.CreateReadOnlyWindow("w", [][]byte{nil, raw}) },
		"uint64":         func(c *rma.Comm) *rma.Window { return c.CreateUint64Window("w", [][]uint64{nil, u64s}) },
		"vertices":       func(c *rma.Comm) *rma.Window { return c.CreateVertexWindow("w", [][]graph.V{nil, verts}) },
		"compressed": func(c *rma.Comm) *rma.Window {
			return c.CreateCompressedVertexWindow("w", []*graph.CompressedAdj{
				graph.NewCompressedAdj([]uint64{0}, nil),
				graph.NewCompressedAdj(offsets, func(i int, _ []graph.V) []graph.V { return verts[offsets[i]:offsets[i+1]] }),
			})
		},
	}
	type outcome struct {
		stats    Stats
		clock    uint64
		resident [region / 64]bool
		sum      uint64
	}
	for name, mk := range kinds {
		run := func(owned bool) (o outcome) {
			comm := rma.NewComm(2, rma.DefaultCostModel())
			w := mk(comm)
			r := comm.Rank(0)
			r.LockAll(w)
			defer r.UnlockAll(w)
			c := New(r, w, Config{Capacity: 1 << 10, Buckets: 16, Assoc: 2})
			var own Request
			rng := rand.New(rand.NewPCG(5, 9))
			for i := 0; i < 2000; i++ {
				off := 64 * rng.IntN(region/64/4) // skewed: hits, capacity and conflict evictions
				score := math.NaN()
				if i%3 != 0 {
					score = float64(off % 448)
				}
				q := &own
				if owned {
					c.GetInto(q, 1, off, 64, score)
				} else {
					q = c.GetScored(1, off, 64, score)
				}
				q.Wait()
				switch w.Kind() {
				case rma.ReadOnlyUint64s:
					o.sum += q.Uint64s()[7]
				case rma.ReadOnlyVertices, rma.CompressedVertices:
					o.sum += uint64(q.Vertices()[15])
				default:
					o.sum += uint64(q.Data()[63])
				}
				if !owned {
					q.Release()
				}
			}
			if err := c.checkInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range o.resident {
				o.resident[i] = c.Contains(1, 64*i, 64)
			}
			o.stats, o.clock = c.Stats(), math.Float64bits(r.Clock().Now())
			return o
		}
		pooled, owned := run(false), run(true)
		if pooled.stats.Hits == 0 || pooled.stats.CapacityEvictions == 0 || pooled.stats.ConflictEvictions == 0 {
			t.Fatalf("%s: the stream must hit and evict both ways: %+v", name, pooled.stats)
		}
		if pooled != owned {
			t.Errorf("%s: ownerships differ\n pooled: %+v clock %#x sum %d\n owned:  %+v clock %#x sum %d", name,
				pooled.stats, pooled.clock, pooled.sum, owned.stats, owned.clock, owned.sum)
		}
	}
}

// TestGetPanicLeavesCacheUsable: the geometry contract panic of a get
// precedes enter(), like Release's, so a caller that recovers it can go on
// using the cache.
func TestGetPanicLeavesCacheUsable(t *testing.T) {
	_, _, c := testSetup(t, 1<<12, Config{Capacity: 1 << 10})
	var own Request
	mustPanicClampi(t, "Get outside the window geometry", func() { c.Get(1, 1<<40, 64) })
	mustPanicClampi(t, "GetInto outside the window geometry", func() { c.GetInto(&own, 7, 0, 64, math.NaN()) })
	q := c.Get(1, 0, 64)
	q.Wait()
	q.Release()
	if !c.Contains(1, 0, 64) || c.Stats().Misses != 1 {
		t.Errorf("after the recovered panics the cache did not serve a get: %+v", c.Stats())
	}
}

// TestTypedWindowCacheServesViews verifies that a cache over the typed
// windows serves hits and completed misses as aliased views of the window.
func TestTypedWindowCacheServesViews(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	adj := []graph.V{7, 8, 9, 10}
	wv := comm.CreateVertexWindow("adj", [][]graph.V{nil, adj})
	offs := []uint64{0, 2, 2, 4}
	wu := comm.CreateUint64Window("off", [][]uint64{nil, offs})
	r := comm.Rank(0)
	r.LockAll(wv)
	r.LockAll(wu)
	defer r.UnlockAll(wv)
	defer r.UnlockAll(wu)
	cv := New(r, wv, Config{Capacity: 1 << 12})
	cu := New(r, wu, Config{Capacity: 1 << 12})

	// Miss path: the completed request exposes a window view.
	mq := cv.Get(1, 4, 8)
	mq.Wait()
	if got := mq.Vertices(); len(got) != 2 || &got[0] != &adj[1] {
		t.Errorf("miss Vertices = %v, want aliased view of adj[1:3]", got)
	}
	mq.Release()

	// Hit path: ditto, served straight from the table.
	hq := cv.Get(1, 4, 8)
	if !hq.Hit() {
		t.Fatal("second access missed")
	}
	if got := hq.Vertices(); len(got) != 2 || got[0] != 8 || &got[0] != &adj[1] {
		t.Errorf("hit Vertices = %v, want aliased view", got)
	}
	hq.Release()

	uq := cu.Get(1, 16, 16)
	uq.Wait()
	if got := uq.Uint64s(); len(got) != 2 || got[0] != 2 || &got[0] != &offs[2] {
		t.Errorf("miss Uint64s = %v, want aliased view of offs[2:4]", got)
	}
	uq.Release()

	// Local bypass on a typed window.
	lq := cv.Get(0, 0, 0)
	if !lq.Hit() || !lq.Done() {
		t.Error("local bypass must complete immediately")
	}
	lq.Release()
}

// TestRequestPoolRoundTrip checks pooled-request recycling across the
// miss → wait → release lifecycle, including out-of-order completion: each
// Wait completes its own miss only, and a request returns to the free list at
// Release.
func TestRequestPoolRoundTrip(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<12)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 12})

	q1 := c.Get(1, 0, 64)
	q2 := c.Get(1, 64, 64)
	q3 := c.Get(1, 128, 64)
	mustPanicClampi(t, "release incomplete miss", func() { q1.Release() })
	q2.Wait() // out of order: the others stay in flight
	if q1.Done() || q3.Done() || c.inflight != 2 || !c.Contains(1, 64, 64) || c.Contains(1, 0, 64) {
		t.Fatalf("after one Wait: inflight %d; want q1 and q3 in flight, only q2 inserted", c.inflight)
	}
	r.FlushAll(w) // a window flush does not complete a cached get
	if q1.Done() || c.inflight != 2 {
		t.Fatalf("a raw window flush completed a cached miss (inflight %d)", c.inflight)
	}
	q1.Wait()
	q3.Wait()
	if c.inflight != 0 || !c.Contains(1, 0, 64) || !c.Contains(1, 128, 64) {
		t.Errorf("after every Wait: inflight %d; want none, all three inserted", c.inflight)
	}
	q1.Release()
	q2.Release()
	q3.Release()
	if len(c.reqFree) != 3 {
		t.Errorf("free list = %d, want 3", len(c.reqFree))
	}
	// Steady state: every completed miss leaves nothing in flight and the
	// pool at its size.
	for i := 0; i < 200; i++ {
		q := c.Get(1, (i%32)*128, 128)
		q.Wait()
		if c.inflight != 0 {
			t.Fatalf("access %d: inflight %d after Wait", i, c.inflight)
		}
		q.Release()
	}
	if len(c.reqFree) != 3 {
		t.Errorf("free list = %d after the steady state, want 3", len(c.reqFree))
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var zero Request
	if zero.Done() {
		t.Error("a request never issued reports Done")
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
	if !c.Contains(1, 0, 64) {
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

// TestEpochFlushAllocFree: Flush — what the adaptive table resize and a
// degraded access (Available) take — must clear the table, allocator and heap
// in place, so a steady fill-and-flush loop allocates nothing (the seed
// rebuilt table+allocator on every flush).
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
	if s := c.Stats(); s.Flushes == 0 || s.Hits != 0 {
		t.Fatalf("the loop must flush every entry before its next get: %+v", s)
	}
}

// TestVictimHeapStaysCompact is the stale-item bloat guard: across a
// hit-heavy workload with per-hit score updates (the ScoreDegreeRecency
// pattern), the victim heap must stay at one item per live entry. The
// seed's snapshot heap stranded a duplicate on every SetScore and only
// shed them on future evictions, so this workload grew it without bound.
func TestVictimHeapStaysCompact(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, 1<<20)})
	r := comm.Rank(0)
	r.LockAll(w)
	defer r.UnlockAll(w)
	c := New(r, w, Config{Capacity: 1 << 14})
	const entries = 64
	for i := 0; i < entries; i++ {
		q := c.GetScored(1, i*256, 256, float64(i))
		q.Wait()
		q.Release()
	}
	for round := 0; round < 10000; round++ {
		i := round % entries
		q := c.Get(1, i*256, 256) // hit: bumps the entry's stamp
		if !q.Hit() {
			t.Fatalf("round %d: unexpected miss", round)
		}
		q.Release()
		c.SetScore(1, i*256, 256, float64((round*31)%997)) // re-key in place
		if got := c.victims.len(); got > c.tab.n {
			t.Fatalf("round %d: heap holds %d items for %d live entries (stale bloat)", round, got, c.tab.n)
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
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
	if c.Contains(0, 0, 0) {
		t.Fatal("empty cache claims to contain the zero key")
	}
	q := c.Get(0, 0, 0)
	if q.Hit() {
		t.Fatal("zero-key get reported a phantom hit on an empty cache")
	}
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
