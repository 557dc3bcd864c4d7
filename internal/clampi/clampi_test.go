package clampi

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rma"
)

// testSetup builds a 2-rank world where rank 1 exposes `size` read-only bytes
// with value pattern b[i] = i&0xff, and returns rank 0's handle plus the
// window.
func testSetup(t testing.TB, size int, cfg Config) (*rma.Rank, *rma.Window, *Cache) {
	t.Helper()
	c := rma.NewComm(2, rma.DefaultCostModel())
	region := make([]byte, size)
	for i := range region {
		region[i] = byte(i)
	}
	w := c.CreateReadOnlyWindow("data", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	cache := New(r, w, cfg)
	return r, w, cache
}

// vertexSetup is testSetup over a vertex window: rank 1 exposes n vertices,
// vertex i at byte offset 4i holding the id i.
func vertexSetup(t testing.TB, n int, cfg Config) (*rma.Rank, *rma.Window, *Cache) {
	t.Helper()
	c := rma.NewComm(2, rma.DefaultCostModel())
	region := make([]graph.V, n)
	for i := range region {
		region[i] = graph.V(i)
	}
	w := c.CreateVertexWindow("adj", [][]graph.V{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	return r, w, New(r, w, cfg)
}

// resident reports whether the exact region is cached.
func resident(c *Cache, target, offset, size int) bool {
	return c.coder.fits(target, offset, size) && c.tab.lookup(c.key(target, offset, size)) >= 0
}

// isWindowList reports whether list is the n vertices from byte offset off
// of vertexSetup's window.
func isWindowList(list []graph.V, off, n int) bool {
	if len(list) != n {
		return false
	}
	for i, v := range list {
		if v != graph.V(off/4+i) {
			return false
		}
	}
	return true
}

func TestCacheHitReturnsSameBytes(t *testing.T) {
	_, _, c := vertexSetup(t, 256, Config{Capacity: 512})
	for i, want := range []Stats{{Misses: 1}, {Hits: 1, Misses: 1}} {
		q := c.Get(1, 100, 48)
		q.Wait()
		if !isWindowList(q.Vertices(), 100, 12) {
			t.Errorf("access %d: list %v is not the window's", i, q.Vertices())
		}
		q.Release()
		if s := c.Stats(); s.Hits != want.Hits || s.Misses != want.Misses || s.CompulsoryMisses != want.CompulsoryMisses {
			t.Errorf("access %d: stats = %+v", i, s)
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitIsCheap(t *testing.T) {
	r, _, c := testSetup(t, 1024, Config{Capacity: 512})
	c.Get(1, 0, 100).Wait()
	before := r.Now()
	c.Get(1, 0, 100)
	hitCost := r.Now() - before
	if alpha := rma.DefaultCostModel().RemoteLatency; hitCost >= alpha {
		t.Errorf("hit cost %v ns not below remote latency %v", hitCost, alpha)
	}
	if r.Counters().Gets != 1 {
		t.Errorf("hit issued a network get (Gets=%d)", r.Counters().Gets)
	}
}

func TestLocalAccessBypassesCache(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateVertexWindow("adj", [][]graph.V{{1, 2, 3, 4}, nil})
	r := comm.Rank(0)
	r.LockAll(w)
	c := New(r, w, Config{Capacity: 128})
	q := c.Get(0, 4, 8)
	q.Wait()
	if got := q.Vertices(); !slices.Equal(got, []graph.V{2, 3}) {
		t.Errorf("Vertices = %v", got)
	}
	q.Release()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("local access touched cache stats: %+v", s)
	}
}

func TestDistinctRegionsAreDistinctEntries(t *testing.T) {
	_, _, c := testSetup(t, 1024, Config{Capacity: 1024})
	q1 := c.Get(1, 0, 16)
	q2 := c.Get(1, 16, 16)
	q3 := c.Get(1, 0, 32) // same offset, different size: different entry
	q1.Wait()
	q2.Wait()
	q3.Wait()
	if got := c.Stats().Inserts; got != 3 {
		t.Errorf("Inserts = %d, want 3", got)
	}
	if !resident(c, 1, 0, 16) || !resident(c, 1, 16, 16) || !resident(c, 1, 0, 32) {
		t.Error("entries missing")
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	// Capacity for exactly two 40-byte entries; touching A keeps it alive
	// and the third insert evicts B (least recently used).
	_, _, c := testSetup(t, 1024, Config{Capacity: 80})
	c.Get(1, 0, 40).Wait()  // A
	c.Get(1, 40, 40).Wait() // B
	c.Get(1, 0, 40)         // hit A -> A more recent than B
	c.Get(1, 80, 40).Wait() // C: needs eviction
	if !resident(c, 1, 0, 40) {
		t.Error("recently-used entry A was evicted")
	}
	if resident(c, 1, 40, 40) {
		t.Error("LRU entry B survived")
	}
	if !resident(c, 1, 80, 40) {
		t.Error("new entry C not inserted")
	}
	s := c.Stats()
	if s.CapacityEvictions != 1 {
		t.Errorf("CapacityEvictions = %d, want 1", s.CapacityEvictions)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryLargerThanCapacityNotCached(t *testing.T) {
	_, _, c := testSetup(t, 1024, Config{Capacity: 64})
	c.Get(1, 0, 100).Wait()
	if resident(c, 1, 0, 100) {
		t.Error("entry larger than the whole buffer was cached")
	}
	if c.Stats().RejectedInserts != 1 {
		t.Errorf("RejectedInserts = %d, want 1", c.Stats().RejectedInserts)
	}
}

func TestAppScoreProtectsHighDegreeEntries(t *testing.T) {
	// With application-defined scores (the paper's extension), a low-score
	// newcomer must NOT evict higher-score residents — unlike LRU where
	// the newcomer always wins.
	_, _, c := testSetup(t, 1024, Config{Capacity: 80})
	c.GetScored(1, 0, 40, 100).Wait() // high-degree entry
	c.GetScored(1, 40, 40, 90).Wait() // second high-degree entry
	c.GetScored(1, 80, 40, 5).Wait()  // low-degree: must be rejected
	if !resident(c, 1, 0, 40) || !resident(c, 1, 40, 40) {
		t.Error("high-score entries were evicted by a low-score newcomer")
	}
	if resident(c, 1, 80, 40) {
		t.Error("low-score newcomer was cached despite full buffer of better entries")
	}
	// A higher-score newcomer evicts the lowest-score resident.
	c.GetScored(1, 120, 40, 95).Wait()
	if !resident(c, 1, 120, 40) {
		t.Error("score-95 newcomer rejected")
	}
	if resident(c, 1, 40, 40) {
		t.Error("score-90 resident survived over score-95 newcomer")
	}
	if !resident(c, 1, 0, 40) {
		t.Error("score-100 resident evicted")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictEviction(t *testing.T) {
	// A 1-bucket, 1-way table: every distinct key conflicts.
	_, _, c := testSetup(t, 1024, Config{Capacity: 1024, Buckets: 1, Assoc: 1})
	c.Get(1, 0, 8).Wait()
	c.Get(1, 8, 8).Wait()
	s := c.Stats()
	if s.ConflictEvictions != 1 {
		t.Errorf("ConflictEvictions = %d, want 1", s.ConflictEvictions)
	}
	if resident(c, 1, 0, 8) {
		t.Error("conflict victim still present")
	}
	if !resident(c, 1, 8, 8) {
		t.Error("newcomer not inserted after conflict eviction")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompulsoryVsCapacityMisses(t *testing.T) {
	// Re-reading an evicted entry is a miss but NOT a compulsory miss: the
	// caller, which knows the access is not its coordinate's first, says so.
	_, _, c := testSetup(t, 1024, Config{Capacity: 40})
	c.Decide(c.KeyOf(1, 0, 40), math.NaN(), true)
	c.Decide(c.KeyOf(1, 40, 40), math.NaN(), true) // evicts the first (only room for one)
	c.Decide(c.KeyOf(1, 0, 40), math.NaN(), false) // capacity miss
	s := c.Stats()
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
	if s.CompulsoryMisses != 2 {
		t.Errorf("CompulsoryMisses = %d, want 2", s.CompulsoryMisses)
	}
}

// TestRequestWaitCompletesSingleMiss: a miss is decided, and its region
// inserted, at issue; its Wait completes the get, and a second Wait changes
// nothing.
func TestRequestWaitCompletesSingleMiss(t *testing.T) {
	_, _, c := vertexSetup(t, 256, Config{Capacity: 512})
	q := c.Get(1, 0, 16)
	if !resident(c, 1, 0, 16) {
		t.Error("the miss was not inserted at issue")
	}
	q.Wait()
	q.Wait()
	if !isWindowList(q.Vertices(), 0, 4) || c.Stats().Inserts != 1 {
		t.Errorf("after two Waits: list %v, %d inserts; want the window's list, 1", q.Vertices(), c.Stats().Inserts)
	}
	q.Release()
}

func TestPositionalScorePrefersFragmentingVictims(t *testing.T) {
	// Capacity 140 holds A[0,40) B[40,80) C[80,120) plus a 20-byte free
	// tail adjacent to C. Inserting a 60-byte entry needs an eviction;
	// C is the *most recently used* entry, but evicting it merges with
	// the free tail into exactly the needed 60 bytes. With a large
	// positional weight, C must be chosen over the older A and B —
	// the paper's "poorly placed entries evict first even at higher
	// temporal locality" behaviour (§II-F).
	_, _, c := testSetup(t, 4096, Config{Capacity: 140, PosWeight: 1e9})
	c.Get(1, 0, 40).Wait()   // A at buffer [0,40)
	c.Get(1, 40, 40).Wait()  // B at [40,80)
	c.Get(1, 80, 40).Wait()  // C at [80,120), most recent, adjacent to free [120,140)
	c.Get(1, 200, 60).Wait() // D: needs 60 contiguous bytes
	if resident(c, 1, 80, 40) {
		t.Error("positional score did not evict the mergeable victim C")
	}
	if !resident(c, 1, 0, 40) || !resident(c, 1, 40, 40) {
		t.Error("non-mergeable entries A/B were evicted instead")
	}
	if !resident(c, 1, 200, 60) {
		t.Error("new entry D not inserted")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// waitAll waits for qs in issue order and returns qs emptied for reuse.
func waitAll(qs []*Request) []*Request {
	for _, q := range qs {
		q.Wait()
	}
	return qs[:0]
}

func TestCacheChurnInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	_, _, c := testSetup(t, 1<<16, Config{Capacity: 4096, Buckets: 16, Assoc: 2})
	var pending []*Request
	for i := 0; i < 4000; i++ {
		// Keys repeat: a bounded universe of (offset,size) pairs so the
		// trace mixes hits with misses like a real reuse pattern.
		slot := rng.IntN(64)
		off := slot * 512
		size := 1 + (slot*37)%200
		if rng.Float64() < 0.3 {
			pending = append(pending, c.GetScored(1, off, size, float64(size)))
		} else {
			pending = append(pending, c.Get(1, off, size))
		}
		if rng.Float64() < 0.5 {
			pending = waitAll(pending)
		}
		if i%500 == 0 {
			pending = waitAll(pending)
			if err := c.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	waitAll(pending)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("churn produced no mixed traffic: %+v", s)
	}
}

func TestCachedDataAlwaysMatchesWindow(t *testing.T) {
	// Property-style: after any access sequence, every Get result equals
	// the window's ground truth.
	rng := rand.New(rand.NewPCG(21, 22))
	_, _, c := vertexSetup(t, 1024, Config{Capacity: 512, Buckets: 4, Assoc: 2})
	for i := 0; i < 2000; i++ {
		off := 4 * rng.IntN(1000)
		n := 1 + rng.IntN(22)
		q := c.Get(1, off, 4*n)
		q.Wait()
		if !isWindowList(q.Vertices(), off, n) {
			t.Fatalf("step %d: cached read [%d,+%d) returned a wrong list", i, off, 4*n)
		}
		q.Release()
	}
	if s := c.Stats(); s.Hits == 0 || s.CapacityEvictions+s.ConflictEvictions == 0 {
		t.Errorf("the stream must hit and evict: %+v", s)
	}
}

// TestExtentReuseAfterConflictEviction is the tombstone rule's test: a
// conflict victim's record goes back to the slab at once — here the very
// next insert takes both its extent and its id — while the victim's heap
// item stays behind. Capacity pops must step over that item without
// touching the newcomer.
func TestExtentReuseAfterConflictEviction(t *testing.T) {
	const size = 64
	_, _, c := vertexSetup(t, 1<<10, Config{Capacity: 4 * size, Buckets: 2})
	var home [2][]int // offsets by bucket
	for off := 0; off < 1<<12; off += size {
		b := int(c.key(1, off, size).lane) / (2 * c.tab.assoc)
		home[b] = append(home[b], off)
	}
	if len(home[0]) < 5 || len(home[1]) < 4 {
		t.Fatalf("hash spread %d/%d keys over the two buckets", len(home[0]), len(home[1]))
	}
	fetch := func(off int) {
		t.Helper()
		q := c.Get(1, off, size)
		q.Wait()
		if !isWindowList(q.Vertices(), off, size/4) {
			t.Fatalf("region at %d: list %v is not the window's", off, q.Vertices())
		}
		q.Release()
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, off := range home[0][:4] {
		fetch(off) // fills bucket 0 and the buffer
	}
	victim, newcomer := home[0][0], home[0][4]
	id := idOf(c, 1, victim, size)
	fetch(newcomer)
	if s := c.Stats(); s.ConflictEvictions != 1 || s.CapacityEvictions != 0 || resident(c, 1, victim, size) {
		t.Fatalf("setup: want one conflict eviction of the oldest entry, got %+v", s)
	}
	if got := idOf(c, 1, newcomer, size); got != id {
		t.Fatalf("setup: newcomer lives in record %d, the victim's was %d", got, id)
	}
	if c.victims.len() != 5 {
		t.Fatalf("heap holds %d items, want the four entries and the tombstone", c.victims.len())
	}
	fetch(newcomer) // a hit: most recently used from here on
	for i, off := range home[1][:3] {
		fetch(off) // bucket 1 has room, the buffer has none: capacity pops
		if s := c.Stats(); s.ConflictEvictions != 1 || int(s.CapacityEvictions) != i+1 {
			t.Fatalf("insert %d: %+v", i, s)
		}
		if !resident(c, 1, newcomer, size) {
			t.Fatalf("insert %d evicted the newcomer through the tombstone of record %d", i, id)
		}
	}
	if c.victims.len() != 4 {
		t.Errorf("heap holds %d items, want 4: the first pop collects the tombstone", c.victims.len())
	}
	fetch(newcomer)
	if s := c.Stats(); s.Hits != 2 {
		t.Errorf("newcomer was not served from the cache: %+v", s)
	}
}

// TestRequestShellCharges holds Get/GetScored, the charging shell over
// Decide, to the fetch plane's bookings: each row runs its accesses on rank
// 0 of a fresh two-rank world and is checked against the charges both ranks'
// tapes record, the cache statistics it leaves and the panic it raises. A
// hit books ChargeCacheHit and issues no get; a miss its overhead, one get
// and ChargeCacheManage once, however often it is waited; a local access
// bypasses the cache; and a request waited after its cache's Reset charges
// the rank that issued it and touches no cache.
func TestRequestShellCharges(t *testing.T) {
	type charge struct {
		rank  int
		kind  rma.ChargeKind
		bytes int
	}
	done := func(q *Request) {
		q.Wait()
		q.Release()
	}
	missed := []charge{{0, rma.ChargeCacheMiss, 0}, {0, rma.ChargeGetRemote, 32}, {0, rma.ChargeCacheManage, 32}}
	for _, tc := range []struct {
		name  string
		run   func(c *Cache, r1 *rma.Rank, w *rma.Window)
		tape  []charge
		stats [3]int64 // hits, misses, inserts
		panic string
	}{
		{"local bypass", func(c *Cache, _ *rma.Rank, _ *rma.Window) { done(c.Get(0, 64, 32)) },
			[]charge{{0, rma.ChargeGetLocal, 32}}, [3]int64{}, ""},
		{"miss", func(c *Cache, _ *rma.Rank, _ *rma.Window) { done(c.GetScored(1, 64, 32, 8)) },
			missed, [3]int64{0, 1, 1}, ""},
		{"hit", func(c *Cache, _ *rma.Rank, _ *rma.Window) {
			done(c.Get(1, 64, 32))
			done(c.Get(1, 64, 32))
		}, append(slices.Clip(missed), charge{0, rma.ChargeCacheHit, 32}), [3]int64{1, 1, 1}, ""},
		{"miss waited twice", func(c *Cache, _ *rma.Rank, _ *rma.Window) {
			q := c.Get(1, 64, 32)
			q.Wait()
			done(q)
		}, missed, [3]int64{0, 1, 1}, ""},
		{"double release", func(c *Cache, _ *rma.Rank, _ *rma.Window) {
			q := c.Get(1, 64, 32)
			done(q)
			q.Release()
		}, missed, [3]int64{0, 1, 1}, "clampi: Release of an already-released request"},
		{"release before wait", func(c *Cache, _ *rma.Rank, _ *rma.Window) { c.Get(1, 64, 32).Release() },
			missed[:2], [3]int64{0, 1, 1}, "clampi: Release of a miss before its Wait"},
		{"waited after reset", func(c *Cache, r1 *rma.Rank, w *rma.Window) {
			q := c.Get(1, 64, 32)
			c.Reset(r1, w, c.cfg)
			done(q)
		}, missed, [3]int64{}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comm := rma.NewComm(2, rma.DefaultCostModel())
			var tape []charge
			comm.SetChargeObserver(func(rank int, kind rma.ChargeKind, bytes int, _, _ float64) {
				tape = append(tape, charge{rank, kind, bytes})
			})
			w := comm.CreateVertexWindow("adj", [][]graph.V{make([]graph.V, 64), make([]graph.V, 64)})
			r0, r1 := comm.Rank(0), comm.Rank(1)
			r0.LockAll(w)
			c := New(r0, w, Config{Capacity: 1 << 10})
			func() {
				defer func() {
					if got, _ := recover().(string); got != tc.panic {
						t.Errorf("panic %q, want %q", got, tc.panic)
					}
				}()
				tc.run(c, r1, w)
			}()
			if !slices.Equal(tape, tc.tape) {
				t.Errorf("tape %v, want %v", tape, tc.tape)
			}
			if s := c.Stats(); [3]int64{s.Hits, s.Misses, s.Inserts} != tc.stats {
				t.Errorf("hits, misses, inserts = %d %d %d, want %v", s.Hits, s.Misses, s.Inserts, tc.stats)
			}
			if c.busy {
				t.Error("the row left the cache marked mid-operation")
			}
		})
	}
}
