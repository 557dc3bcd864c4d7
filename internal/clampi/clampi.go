package clampi

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rma"
)

// Mode is CLaMPI's consistency policy (§II-F).
type Mode uint8

// AlwaysCache, the zero Mode and the only one, assumes RMA-read data is
// read-only, so the cache never needs flushing for consistency: the graph is
// not modified during the computation (§III-B).
const AlwaysCache Mode = 0

// Config tunes one cache instance. Both the hash-table size and the memory
// buffer capacity are the use-case-specific parameters §II-F describes;
// §III-B-1 derives them for the two caches of the LCC engine, and they hold
// from one Reset to the next.
type Config struct {
	// Capacity is the memory buffer reserved for cached data, in bytes. It
	// is positive: a cache of 0 bytes is no cache, and every constructor
	// panics on one.
	Capacity int
	// Buckets is the hash-table size (number of buckets). Default 1024.
	Buckets int
	// Assoc is the bucket associativity (entries per bucket). Default 4.
	Assoc int
	// Mode is the consistency mode. AlwaysCache is the only one; the field
	// stays because the benchmark's replay (bench/replay.go) names it.
	Mode Mode
	// PosWeight scales the positional (fragmentation) component of the
	// default eviction score. Default 64 ticks.
	PosWeight float64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		panic(fmt.Sprintf("clampi: capacity %d: a cache needs a positive capacity", c.Capacity))
	}
	if c.Assoc == 0 {
		c.Assoc = 4
	}
	if c.Buckets == 0 {
		c.Buckets = 1024
	}
	if c.PosWeight == 0 {
		c.PosWeight = 64
	}
	return c
}

// Stats counts cache activity. The evaluation distinguishes compulsory
// misses (first access to a region; grey areas in Figs. 7/8) from capacity
// and conflict misses, and hit/miss byte volumes (a hit on a long adjacency
// list saves more than one on a 16-byte offset pair; §IV-D-1).
type Stats struct {
	Hits, Misses       int64
	CompulsoryMisses   int64
	HitBytes           int64
	MissBytes          int64
	ConflictEvictions  int64
	CapacityEvictions  int64
	Inserts            int64
	RejectedInserts    int64
	Flushes            int64
	BytesCached        int64   // current buffer occupancy
	EntriesCached      int64   // current entry count
	FragmentationRatio float64 // 1 - largestFree/freeBytes at snapshot time
	DegradedOps        int64   // accesses served degraded: cache fault, direct-RMA fallback
}

// Cache is one CLaMPI instance: it transparently caches the gets a single
// rank issues over a single window (the engine creates two per rank,
// C_offsets and C_adj; §III-B). A Cache must be used from the rank's own
// goroutine, like the rank itself.
//
// A cache serves read-only windows only (New panics on a writable one) and
// stores no bytes: the window region is immutable, so cached entries are
// bookkeeping only and hits are served as aliased views of the window (or,
// compressed, decoded again). The memory buffer, eviction and fragmentation
// behaviour are simulated exactly as if the bytes were resident.
//
// Steady-state operation — hit, miss, insert, evict, flush — performs
// no heap allocations: entries and buffer extents are records of one slab
// (see record), AVL nodes recycle through a pool, requests come from a free
// list (see Request), and the victim heap and hash table reuse their backing
// arrays. Filling those structures is what costs memory (4.6 MB for a C_adj
// instance at the benchmark's size on its uniform graph; TestCacheFootprint),
// so an instance is reusable: Reset rebinds it to another rank and window
// in the exact state New returns, keeping every backing array the new
// configuration can use.
// What a Cache carries from one use to the next is host memory only — no
// model-visible state (DESIGN.md §2, "Instance recycling").
type Cache struct {
	rank *rma.Rank
	win  *rma.Window
	cfg  Config
	index

	alloc   allocator
	victims victimHeap
	sized   int // records the slab and heap were allocated for (Reset)
	tick    uint64
	stats   Stats

	reqFree []*Request // released requests; single-goroutine like the rank, so no locking

	owner

	// sink is where warmRoot's loads end up (never read).
	sink uint64

	// onEvict, when a test sets it, observes every eviction before it
	// happens: its kind, the victim's packed key and the cache's tick.
	onEvict func(conflict bool, key, tick uint64)
}

// New wraps read-only window w for rank r with a cache configured by cfg.
func New(r *rma.Rank, w *rma.Window, cfg Config) *Cache {
	return new(Cache).Reset(r, w, cfg)
}

// Reset binds the cache to rank r and window w under cfg and puts it in the
// state of a just-constructed instance, in place: empty table at cfg's
// geometry and one pristine free region of cfg's capacity, the record slab
// rewound, the victim heap emptied, tick and statistics zeroed. It is the
// only initialiser — New is Reset on the zero Cache — so a recycled instance
// and a fresh one cannot differ in anything the model can see; they differ
// in how much backing storage is already there. Returns c.
//
// Backing arrays are kept unless cfg could not use a quarter of one — the
// table's arrays and the slab's and heap's first allocation against the
// size cfg asks for, what a use grew (slab, heap, tree pool) against the
// most records cfg's geometry can hold — so one query with
// a large cache does not pin its footprint in a pool for the pool's
// lifetime, and a steady stream of equal queries never reallocates.
//
// Reset panics on a capacity that is not positive, on a writable window, and
// on a cache that is mid-operation: such an instance was abandoned by an
// unwinding rank.
func (c *Cache) Reset(r *rma.Rank, w *rma.Window, cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if !w.ReadOnly() {
		panic(fmt.Sprintf("clampi: window %q is writable; a cache serves read-only windows only", w.Name()))
	}
	if c.busy {
		panic("clampi: Reset of a cache that is mid-operation")
	}

	c.rank, c.win, c.cfg = r, w, cfg
	c.coder = windowCoder(w, r.NumRanks())

	// The slab and the heap start at a record per bucket — the table size is
	// the configuration's own estimate of the population (§III-B-1 sizes it
	// to the entries expected) — plus id 0 and the pristine free region, and
	// grow by append, a quarter at a time, when the estimate was low. They
	// are released when the configuration that sized them asked for over four
	// times as much, or a use grew them past four times what cfg's geometry
	// can fill: every entry holds a slot and at least a byte of the buffer,
	// and free regions alternate with entries.
	most := 2*min(c.cfg.Buckets*c.cfg.Assoc, c.cfg.Capacity) + 2
	hint := min(c.cfg.Buckets+2, most)
	if c.sized == 0 || c.sized > 4*hint || max(cap(c.alloc.recs), cap(c.victims.h)) > 4*most {
		c.sized = hint
		c.alloc = allocator{recs: make([]record, 1, hint)}
		c.victims = victimHeap{h: make([]heapItem, 0, hint), pos: make([]int32, 0, hint)}
	}
	c.empty()
	c.tick = 0
	c.stats = Stats{}
	return c
}

// windowCoder is the key coder of w in a world of ranks ranks: offsets and
// sizes reach its largest region.
func windowCoder(w *rma.Window, ranks int) keyCoder {
	maxRegion := 0
	for t := range ranks {
		maxRegion = max(maxRegion, w.SizeAt(t))
	}
	return newKeyCoder(ranks, maxRegion)
}

// Unbind drops the cache's rank and window, so that an idle instance in a
// pool keeps no finished run's world alive. Only Reset makes it usable again.
func (c *Cache) Unbind() { c.rank, c.win = nil, nil }

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.BytesCached = int64(c.alloc.used)
	s.EntriesCached = int64(c.tab.n)
	s.FragmentationRatio = c.alloc.fragmentation()
	return s
}

// priority is the eviction priority of an entry: LOWER evicts FIRST.
//
// Default scheme (§III-B-2): least-recently-used, weighted by a positional
// score so that entries surrounded by free space — whose eviction would
// merge fragments — are preferred victims even at higher temporal locality.
//
// With an application-defined score the priority IS that score (the paper's
// extension: for LCC, the remote vertex's degree), trading the spatial
// anti-fragmentation effect for application knowledge.
func (c *Cache) priority(e *record) float64 {
	if !math.IsNaN(e.score) {
		return e.score
	}
	mergeable := float64(c.alloc.adjacentFree(e))
	return float64(c.tab.tick(e.meta)) - c.cfg.PosWeight*mergeable/float64(e.size+1)
}

// settleVictims revalidates the victim heap's root until it is current — a
// live entry whose stamp and priority are the ones it was pushed with — and
// reports whether one is left. Tombstones are dropped; a stale item is
// popped and pushed back under its current priority and stamp (the stamp
// lives in the entry's bucket lane, so hits stay single-cache-line; see
// table).
func (c *Cache) settleVictims() bool {
	v := &c.victims
	for len(v.h) > 0 {
		it := v.h[0]
		if it.id == 0 {
			v.pop()
			continue
		}
		e := &c.alloc.recs[it.id]
		prio, stamp := c.priority(e), c.tab.stamp(e.meta)
		if stamp == it.stamp && prio == it.prio {
			return true
		}
		c.warmRoot()
		v.pop()
		v.push(it.id, prio, stamp)
	}
	return false
}

// warmRoot loads what the next round of settleVictims reads first — the
// record, lane meta word and address neighbours of the child the root's pop
// promotes (the smaller, right only if strictly less) — so that their misses
// overlap the pop and the push. Like Preload, it only sums the words into
// the sink: no tick, stamp, statistic, entry or heap slot changes. A
// tombstone's id 0 names the zero record.
func (c *Cache) warmRoot() {
	h, recs := c.victims.h, c.alloc.recs
	if len(h) < 3 {
		return
	}
	j := 1
	if h[2].prio < h[1].prio {
		j = 2
	}
	e := &recs[h[j].id]
	c.sink += c.tab.lane[e.meta] + uint64(recs[e.prev].size+recs[e.next].size)
}

// Request is one get through the cache, from issue to the last read of its
// list. Get and GetScored are a charging shell over Decide, which counts no
// compulsory miss for them (first is false): the access is
// decided at issue and its verdict charged to the issuing rank as the
// engines' fetch plane charges it — a hit ChargeCacheHit and no get; a miss
// the miss overhead and a direct get, and ChargeCacheManage once, at Wait —
// while an access to the rank's own region bypasses the cache, a direct get
// that touches no statistic. Wait touches no cache, so a request waited after
// its cache's Reset charges the rank that issued it. Requests come from the
// cache's free list: Release returns one.
type Request struct {
	cache *Cache
	rank  *rma.Rank   // the issuing rank, which Wait charges
	win   *rma.Window // a hit's (nil otherwise): Vertices reads its list there

	target, offset, size int
	own                  rma.Request // a miss's or a bypass's direct get
	manage               bool        // a miss's ChargeCacheManage is due at its first Wait
	pooled               bool        // on the free list
}

// Wait completes the request: a miss's or a bypass's get, and a miss's
// ChargeCacheManage the first time.
func (q *Request) Wait() {
	if q.win == nil {
		q.own.Wait()
	}
	if q.manage {
		q.manage = false
		// Storing an entry costs real work: hash insert, allocator search,
		// and copying the retrieved bytes into the memory buffer. Together
		// with CacheMissOverhead this is the cache-management overhead that
		// makes caching a net loss when compulsory misses dominate (§IV-D-2
		// scenario 2, the LiveJournal case).
		q.rank.ChargeCacheManage(q.size)
	}
}

// Vertices returns the list read from a vertex window, once waited: a view
// of the window, or over a compressed window the run decoded — by a hit into
// fresh storage, by a get into the request's own, valid until Release.
func (q *Request) Vertices() []graph.V {
	if q.win != nil {
		// The entry is bookkeeping and never touched: the data is the
		// window's own.
		return q.win.ReadVertices(q.target, q.offset, q.size, nil)
	}
	return q.own.Vertices()
}

// Release returns the request to its cache's free list. Releasing it twice,
// or a miss before its Wait, panics.
func (q *Request) Release() {
	if q.pooled {
		panic("clampi: Release of an already-released request")
	}
	if q.manage {
		panic("clampi: Release of a miss before its Wait")
	}
	q.pooled, q.win = true, nil
	q.cache.reqFree = append(q.cache.reqFree, q)
}

// owner asserts a cache's single-owner contract now that ranks execute on
// concurrent worker goroutines: operational entry points set and clear busy
// (enter, leave) with PLAIN (unsynchronized) writes — deliberately, so the
// race detector flags any cross-goroutine use of one cache as a data race
// on this field, and reentrant use panics outright. Cost on the hot path:
// two unordered byte stores, no locks, no atomics.
type owner struct{ busy bool }

func (o *owner) enter() {
	if o.busy {
		panic("clampi: concurrent or reentrant use of a single-owner cache")
	}
	o.busy = true
}

func (o *owner) leave() { o.busy = false }

// Key is one get's coordinate as a cache indexes it: the packed
// (target, offset, size) word and its bucket's first lane word, so the hash
// and the bucket division run once per access, in KeyOf. A key is valid for
// the cache that made it until that cache's next Reset, which may change the
// table geometry it encodes.
type Key struct {
	pk   uint64
	lane uint32
}

// index is what a cache — Cache or OneSize — keys its accesses by: the
// window's key coder and the set-associative table.
type index struct {
	coder keyCoder
	tab   table
}

// KeyOf derives the key of a get of (target, offset, size). A coordinate
// outside the window geometry would pack into an alias of a valid key, so it
// panics here, before any operation: a caller that recovers finds the cache
// usable.
func (x *index) KeyOf(target, offset, size int) Key {
	if !x.coder.fits(target, offset, size) {
		panic(outsideGeometry(target, offset, size))
	}
	return x.key(target, offset, size)
}

// key is KeyOf for a coordinate known to fit. It is keyCoder.hash and
// table.laneOf written out, which saves the access two calls.
func (x *index) key(target, offset, size int) Key {
	cd := &x.coder
	h := fnvMix(fnvOffset64, uint64(target), cd.tgtBytes, cd.tgtTail)
	h = fnvMix(h, uint64(offset), cd.offBytes, cd.offTail)
	h = fnvMix(h, uint64(size), cd.offBytes, cd.offTail)
	return Key{cd.pack(target, offset, size), uint32(int(x.tab.magic.mod(h)) * 2 * x.tab.assoc)}
}

// Preload reads, for each key, the words a get of it would miss the host's
// cache on first — the head of the bucket lane it probes and the bucket's
// entry ids a miss's insertion writes — back to back, so that their misses
// overlap where the gets would take them one at a time (lcc's decision pass
// calls this for a batch of upcoming accesses before it decides them). It is
// invisible to the model and to the cache: no statistic, tick, stamp or
// entry changes, and it is not an operation of the single-owner contract (no
// enter). The returned sum means nothing; it keeps the loads.
func (x *index) Preload(keys []Key) (sum uint64) {
	for _, k := range keys {
		sum += x.tab.lane[k.lane] + uint64(x.tab.ents[k.lane/2])
	}
	return sum
}

// Get issues a cached one-sided read (no application score).
func (c *Cache) Get(target, offset, size int) *Request {
	return c.GetScored(target, offset, size, math.NaN())
}

// GetScored issues a cached one-sided read carrying an application-defined
// score for the entry, used in victim selection (§III-B-2). For the LCC
// adjacency cache the score is the remote vertex's out-degree, which the
// engine knows from the preceding offsets get.
func (c *Cache) GetScored(target, offset, size int, score float64) *Request {
	k := c.KeyOf(target, offset, size)
	var q *Request
	if n := len(c.reqFree); n > 0 {
		q, c.reqFree = c.reqFree[n-1], c.reqFree[:n-1]
		q.pooled = false
	} else {
		q = &Request{cache: c}
	}
	q.rank = c.rank
	switch {
	case target == c.rank.ID():
		// Local accesses bypass the cache entirely: the partition owner
		// reads its own memory (Fig. 3: node A reads adj(0), adj(2) locally).
		c.rank.GetInto(&q.own, c.win, target, offset, size)
	case c.Decide(k, score, false) == Hit:
		c.rank.ChargeCacheHit(size)
		q.win, q.target, q.offset, q.size = c.win, target, offset, size
	default:
		c.rank.ChargeCacheMissOverhead()
		q.manage, q.size = true, size
		c.rank.GetInto(&q.own, c.win, target, offset, size)
	}
	return q
}

// Verdict is what the cache made of one access: a hit or a miss (Decide),
// or Degraded, the access the rank's fault schedule found the cache
// unavailable for (rma.Rank.CacheFault; Degrade). It is all the rank's
// charges for the access depend on.
type Verdict uint8

const (
	Undecided Verdict = iota // no access decided
	Hit                      // ChargeCacheHit; the data is a window view
	Miss                     // miss overhead, direct get, its wait, ChargeCacheManage
	Degraded                 // a direct get, the cache untouched
)

// Decide makes the cache transitions of a get of k's coordinate in another
// rank's region, with score (NaN: none) — a hit's touch, or a miss's
// statistics and insertion — and charges nothing: the caller charges the
// verdict. first says whether this is the first access to k's coordinate
// that reaches the cache, which makes a miss compulsory: the caller knows
// it from its own walk (lcc keeps a first-touch bit per list), and the
// request shell, whose callers read hits and misses only, says false. No
// transition reads the rank's clock, so a caller may decide accesses ahead
// of their charges, in their order, with its fault draws in theirs.
func (c *Cache) Decide(k Key, score float64, first bool) Verdict {
	c.enter()
	v := Hit
	_, _, size := c.coder.unpack(k.pk)
	if c.tab.lookupTouch(k, c.tick+1) >= 0 {
		c.tick++
		c.stats.Hits++
		c.stats.HitBytes += int64(size)
	} else {
		if first {
			c.stats.CompulsoryMisses++
		}
		c.stats.Misses++
		c.stats.MissBytes += int64(size)
		c.insert(k, size, score)
		v = Miss
	}
	c.leave()
	return v
}

// insert stores a region under key k, evicting victims as needed. CLaMPI
// caches a missing entry only if it has (or can free) the resources to store
// it.
func (c *Cache) insert(k Key, size int, score float64) {
	if size > c.cfg.Capacity || size == 0 {
		c.stats.RejectedInserts++
		return
	}
	c.tick++
	scored := !math.IsNaN(score)
	newPrio := float64(c.tick)
	if scored {
		newPrio = score
	}

	// Hash-table space: a full bucket forces a conflict eviction.
	way := c.tab.freeWay(k)
	if way < 0 {
		// The victim is the bucket's entry of strictly minimal priority, in
		// slot order (the seed's scan order and tie rule).
		victim, vPrio := uint32(0), math.Inf(1)
		for _, id := range c.tab.ents[k.lane/2:][:c.tab.assoc] {
			if p := c.priority(&c.alloc.recs[id]); p < vPrio {
				victim, vPrio = id, p
			}
		}
		if victim == 0 || vPrio >= newPrio {
			// All residents are more valuable than the newcomer
			// (possible only under app-defined scores).
			c.stats.RejectedInserts++
			return
		}
		c.evict(victim, true)
		c.stats.ConflictEvictions++
		way = c.tab.freeWay(k)
	}

	// Buffer space: evict ascending-priority victims until the allocation
	// succeeds. Under app-defined scores, stop as soon as the cheapest
	// victim is at least as valuable as the newcomer; an unscored newcomer
	// outranks every resident, so it goes straight to the pop (which
	// revalidates the root exactly as the peek would have).
	id, ok := c.alloc.alloc(size)
	for !ok {
		if !c.settleVictims() || scored && c.victims.h[0].prio >= newPrio {
			c.stats.RejectedInserts++
			return
		}
		c.evict(c.victims.pop().id, false)
		c.stats.CapacityEvictions++
		id, ok = c.alloc.alloc(size)
	}

	e := &c.alloc.recs[id]
	e.score = score
	e.slot, e.meta = c.tab.insertAt(k, way, id, c.tick)
	c.victims.push(id, c.priority(e), 0)
	c.stats.Inserts++
}

// evict removes entry id from the table and frees its extent, record
// included. A capacity victim was already popped off the heap; a conflict
// victim leaves a tombstone there (preserving the seed's lazy shape — see
// the victimHeap determinism contract) that a later pop or flush collects.
// The tombstone names no record, so the extent — alone or coalesced — can
// host a newcomer at once.
func (c *Cache) evict(id uint32, conflict bool) {
	e := &c.alloc.recs[id]
	if c.onEvict != nil {
		c.onEvict(conflict, c.tab.lane[int(e.meta)-c.tab.assoc], c.tick)
	}
	c.victims.bury(id)
	c.tab.remove(e.slot, e.meta)
	c.alloc.free(id)
}

// Flush empties the cache; a degraded access (Degrade) takes it. All
// structures are cleared in place: the heap is truncated, the slab rewinds to
// the one record of a pristine free region, and the table keeps its arrays.
func (c *Cache) Flush() {
	c.empty()
	c.stats.Flushes++
}

// empty is Flush without the count: Reset uses it under a new configuration.
// Nothing is walked but the table's words: positions are written on push, so
// they need no clearing.
func (c *Cache) empty() {
	c.victims.h = c.victims.h[:0]
	c.tab.clearFor(c.cfg.Buckets, c.cfg.Assoc)
	c.alloc.reset(c.cfg.Capacity)
}

// Degrade takes an injected CLaMPI fault (fault.Spec CacheFailPct, which the
// caller draws with rma.Rank.CacheFault): the entries are flushed — their
// state is presumed lost with the failed cache process — and the degraded
// access is counted; the caller serves it with a direct get (the degradation
// ladder, DESIGN.md §7), the same immutable window bytes at a higher
// simulated cost.
func (c *Cache) Degrade() {
	c.enter()
	c.stats.DegradedOps++
	c.Flush()
	c.leave()
}

// checkInvariants validates cross-structure consistency (tests only).
func (c *Cache) checkInvariants() error {
	if err := c.alloc.check(); err != nil {
		return err
	}
	bytes, count := 0, 0
	for slot, id := range c.tab.ents {
		if id == 0 {
			continue
		}
		e := &c.alloc.recs[id]
		key := c.tab.lane[int(e.meta)-c.tab.assoc]
		if int(e.slot) != slot || key == 0 || c.tab.lookup(c.key(c.coder.unpack(key))) != slot {
			return fmt.Errorf("clampi: record %d (key %#x) in slot %d is out of sync with its lane", id, key, slot)
		}
		if i := c.victims.pos[id]; i < 0 || c.victims.h[i].id != id {
			return fmt.Errorf("clampi: live entry %#x missing from victim heap", key)
		}
		bytes += e.size
		count++
	}
	if bytes != c.alloc.used {
		return fmt.Errorf("clampi: table holds %d bytes but allocator used=%d", bytes, c.alloc.used)
	}
	if count != c.tab.n {
		return fmt.Errorf("clampi: table count %d != tracked %d", count, c.tab.n)
	}
	live := 0
	for i, it := range c.victims.h {
		if it.id == 0 {
			continue
		}
		if int(c.victims.pos[it.id]) != i {
			return fmt.Errorf("clampi: heap item %d has stale position %d", i, c.victims.pos[it.id])
		}
		if e := &c.alloc.recs[it.id]; e.slot == freeSlot || c.tab.ents[e.slot] != it.id {
			return fmt.Errorf("clampi: heap item %d names record %d, which is no entry", i, it.id)
		}
		live++
	}
	if live != count {
		return fmt.Errorf("clampi: heap holds %d live entries, table %d", live, count)
	}
	return nil
}
