package clampi

import (
	"bytes"
	"math/rand/v2"
	"testing"

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

func TestCacheHitReturnsSameBytes(t *testing.T) {
	_, _, c := testSetup(t, 1024, Config{Capacity: 512})
	q1 := c.Get(1, 100, 50)
	if q1.Hit() {
		t.Fatal("first access reported a hit")
	}
	q1.Wait()
	direct := q1.Data()

	q2 := c.Get(1, 100, 50)
	if !q2.Hit() {
		t.Fatal("second access missed")
	}
	if !bytes.Equal(q2.Data(), direct) {
		t.Error("cached data differs from direct RMA read")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.CompulsoryMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitIsCheap(t *testing.T) {
	r, _, c := testSetup(t, 1024, Config{Capacity: 512})
	c.Get(1, 0, 100).Wait()
	before := r.Clock().Now()
	c.Get(1, 0, 100)
	hitCost := r.Clock().Now() - before
	if hitCost >= r.Model().RemoteLatency {
		t.Errorf("hit cost %v ns not below remote latency %v", hitCost, r.Model().RemoteLatency)
	}
	if r.Counters().Gets != 1 {
		t.Errorf("hit issued a network get (Gets=%d)", r.Counters().Gets)
	}
}

func TestLocalAccessBypassesCache(t *testing.T) {
	comm := rma.NewComm(2, rma.DefaultCostModel())
	w := comm.CreateReadOnlyWindow("d", [][]byte{{1, 2, 3, 4}, nil})
	r := comm.Rank(0)
	r.LockAll(w)
	c := New(r, w, Config{Capacity: 128})
	q := c.Get(0, 1, 2)
	if !q.Done() {
		t.Fatal("local get not immediately done")
	}
	if !bytes.Equal(q.Data(), []byte{2, 3}) {
		t.Errorf("Data = %v", q.Data())
	}
	s := c.Stats()
	if s.Hits+s.Misses != 0 {
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
	if !c.Contains(1, 0, 16) || !c.Contains(1, 16, 16) || !c.Contains(1, 0, 32) {
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
	if !c.Contains(1, 0, 40) {
		t.Error("recently-used entry A was evicted")
	}
	if c.Contains(1, 40, 40) {
		t.Error("LRU entry B survived")
	}
	if !c.Contains(1, 80, 40) {
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
	if c.Contains(1, 0, 100) {
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
	if !c.Contains(1, 0, 40) || !c.Contains(1, 40, 40) {
		t.Error("high-score entries were evicted by a low-score newcomer")
	}
	if c.Contains(1, 80, 40) {
		t.Error("low-score newcomer was cached despite full buffer of better entries")
	}
	// A higher-score newcomer evicts the lowest-score resident.
	c.GetScored(1, 120, 40, 95).Wait()
	if !c.Contains(1, 120, 40) {
		t.Error("score-95 newcomer rejected")
	}
	if c.Contains(1, 40, 40) {
		t.Error("score-90 resident survived over score-95 newcomer")
	}
	if !c.Contains(1, 0, 40) {
		t.Error("score-100 resident evicted")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetScoreChangesVictim(t *testing.T) {
	_, _, c := testSetup(t, 1024, Config{Capacity: 80})
	c.GetScored(1, 0, 40, 10).Wait()
	c.GetScored(1, 40, 40, 20).Wait()
	// Raise the first entry's score above the second's.
	c.SetScore(1, 0, 40, 30)
	c.GetScored(1, 80, 40, 25).Wait()
	if !c.Contains(1, 0, 40) {
		t.Error("re-scored entry was evicted")
	}
	if c.Contains(1, 40, 40) {
		t.Error("lowest-score entry survived")
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
	if c.Contains(1, 0, 8) {
		t.Error("conflict victim still present")
	}
	if !c.Contains(1, 8, 8) {
		t.Error("newcomer not inserted after conflict eviction")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompulsoryVsCapacityMisses(t *testing.T) {
	// Re-reading an evicted entry is a miss but NOT a compulsory miss.
	_, _, c := testSetup(t, 1024, Config{Capacity: 40})
	c.Get(1, 0, 40).Wait()
	c.Get(1, 40, 40).Wait() // evicts the first (only room for one)
	c.Get(1, 0, 40).Wait()  // capacity miss
	s := c.Stats()
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
	if s.CompulsoryMisses != 2 {
		t.Errorf("CompulsoryMisses = %d, want 2", s.CompulsoryMisses)
	}
}

func TestRequestWaitCompletesSingleMiss(t *testing.T) {
	_, _, c := testSetup(t, 1024, Config{Capacity: 512})
	q := c.Get(1, 0, 16)
	q.Wait()
	if !q.Done() {
		t.Fatal("Wait did not complete the request")
	}
	if !c.Contains(1, 0, 16) {
		t.Error("Wait did not insert the entry")
	}
	// A second Wait must not double-insert.
	q.Wait()
	if c.Stats().Inserts != 1 {
		t.Errorf("Inserts = %d, want 1", c.Stats().Inserts)
	}
}

func TestAdaptiveResizeOnConflicts(t *testing.T) {
	_, _, c := testSetup(t, 1<<20, Config{
		Capacity: 1 << 20, Buckets: 1, Assoc: 1, Adaptive: true,
	})
	// Thrash distinct keys through the 1-slot table.
	for i := 0; i < 3000; i++ {
		c.Get(1, (i%4000)*8, 8).Wait()
	}
	s := c.Stats()
	if s.Resizes == 0 {
		t.Errorf("adaptive heuristic never resized (conflicts=%d)", s.ConflictEvictions)
	}
	if c.cfg.Buckets <= 1 {
		t.Errorf("buckets = %d, want grown", c.cfg.Buckets)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("MissRate of empty stats != 0")
	}
	s.Hits, s.Misses = 3, 1
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
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
	if c.Contains(1, 80, 40) {
		t.Error("positional score did not evict the mergeable victim C")
	}
	if !c.Contains(1, 0, 40) || !c.Contains(1, 40, 40) {
		t.Error("non-mergeable entries A/B were evicted instead")
	}
	if !c.Contains(1, 200, 60) {
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
	_, _, c := testSetup(t, 4096, Config{Capacity: 512, Buckets: 4, Assoc: 2})
	truth := make([]byte, 4096)
	for i := range truth {
		truth[i] = byte(i)
	}
	for i := 0; i < 2000; i++ {
		off := rng.IntN(4000)
		size := 1 + rng.IntN(90)
		q := c.Get(1, off, size)
		q.Wait()
		if !bytes.Equal(q.Data(), truth[off:off+size]) {
			t.Fatalf("step %d: cached read [%d,+%d) returned wrong bytes", i, off, size)
		}
	}
}

// TestExtentReuseAfterConflictEviction is the tombstone rule's test: a
// conflict victim's record goes back to the slab at once — here the very
// next insert takes both its extent and its id — while the victim's heap
// item stays behind. Capacity pops must step over that item without
// touching the newcomer.
func TestExtentReuseAfterConflictEviction(t *testing.T) {
	const size = 64
	_, _, c := testSetup(t, 1<<12, Config{Capacity: 4 * size, Buckets: 2})
	var home [2][]int // offsets by bucket
	for off := 0; off < 1<<12; off += size {
		b := c.tab.bucketOf(c.coder.hash(1, off, size))
		home[b] = append(home[b], off)
	}
	if len(home[0]) < 5 || len(home[1]) < 4 {
		t.Fatalf("hash spread %d/%d keys over the two buckets", len(home[0]), len(home[1]))
	}
	fetch := func(off int) {
		t.Helper()
		q := c.Get(1, off, size)
		q.Wait()
		for i, b := range q.Data() {
			if b != byte(off+i) {
				t.Fatalf("region at %d: byte %d = %d, want %d", off, i, b, byte(off+i))
			}
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
	if s := c.Stats(); s.ConflictEvictions != 1 || s.CapacityEvictions != 0 || c.Contains(1, victim, size) {
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
		if !c.Contains(1, newcomer, size) {
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
