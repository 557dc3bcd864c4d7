package clampi

import (
	"fmt"
	"math"
	"unsafe"

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
// §III-B-1 derives good starting values for the two caches of the LCC
// engine.
type Config struct {
	// Capacity is the memory buffer reserved for cached data, in bytes.
	Capacity int
	// Buckets is the initial hash-table size (number of buckets).
	Buckets int
	// Assoc is the bucket associativity (entries per bucket). Default 4.
	Assoc int
	// Mode is the consistency mode. AlwaysCache is the only one; the field
	// stays because the benchmark's replay (bench/replay.go) names it.
	Mode Mode
	// Adaptive enables the hash-table auto-tuning heuristic: when the
	// conflict-eviction rate is high the table doubles (and the cache is
	// flushed, which is why §III-B-1 stresses good starting values).
	Adaptive bool
	// MaxBuckets bounds adaptive growth. Default 1<<22.
	MaxBuckets int
	// MaxCapacity enables adaptive growth of the memory buffer (§II-F:
	// the heuristic resizes "the hash table and the memory buffer"):
	// when capacity evictions dominate an observation window, the buffer
	// doubles, up to this many bytes. 0 disables buffer growth. Unlike a
	// hash-table resize, buffer growth keeps every cached entry — the
	// region is extended in place and the realloc copy is charged as
	// management overhead.
	MaxCapacity int
	// PosWeight scales the positional (fragmentation) component of the
	// default eviction score. Default 64 ticks.
	PosWeight float64
}

func (c Config) withDefaults() Config {
	if c.Assoc == 0 {
		c.Assoc = 4
	}
	if c.Buckets == 0 {
		c.Buckets = 1024
	}
	if c.MaxBuckets == 0 {
		c.MaxBuckets = 1 << 22
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
	Resizes            int64
	BufferResizes      int64
	HitTime            float64 // ns charged for cache hits
	OverheadTime       float64 // ns of cache-management overhead on misses
	BytesCached        int64   // current buffer occupancy
	EntriesCached      int64   // current entry count
	FragmentationRatio float64 // 1 - largestFree/freeBytes at snapshot time
	DegradedOps        int64   // accesses served degraded: cache fault, direct-RMA fallback
}

// MissRate returns Misses/(Hits+Misses), or 0 before any access.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
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
// (see record), AVL nodes recycle through a pool, requests are the caller's
// own values or come from a free list (see Request), and the victim heap,
// hash table and compulsory-miss set reuse their backing arrays. Filling
// those structures is what costs memory (MemBytes; 2.5 and 4.9 MB for a
// rank's two instances at the benchmark's cache sizes), so an instance is
// reusable: Reset rebinds it to another rank and window in the exact state
// New returns, keeping every backing array the new configuration can use.
// What a Cache carries from one use to the next is host memory only — no
// model-visible state (DESIGN.md §2, "Instance recycling").
type Cache struct {
	rank  *rma.Rank
	win   *rma.Window
	cfg   Config
	coder keyCoder

	tab     table
	alloc   allocator
	victims victimHeap
	sized   int // records the slab and heap were allocated for (Reset)
	tick    uint64
	seen    seenSet
	stats   Stats

	// inflight counts the misses issued and not yet waited for, under either
	// ownership. reqFree recycles pooled requests; single-goroutine like the
	// owning rank, so no locking.
	inflight int
	reqFree  []*Request

	// busy asserts the single-owner contract now that ranks execute on
	// concurrent worker goroutines: operational entry points set and clear
	// it with PLAIN (unsynchronized) writes — deliberately, so the race
	// detector flags any cross-goroutine use of one cache as a data race
	// on this field, and reentrant use panics outright. Cost on the hot
	// path: two unordered byte stores, no locks, no atomics.
	busy bool

	// onEvict, when a test sets it, observes every eviction before it
	// happens: its kind, the victim's packed key and the cache's tick.
	onEvict func(conflict bool, key, tick uint64)

	// adaptive-tuning observation window
	obsOps       int64
	obsConflicts int64
	obsCapacity  int64
}

// New wraps read-only window w for rank r with a cache configured by cfg.
func New(r *rma.Rank, w *rma.Window, cfg Config) *Cache {
	return new(Cache).Reset(r, w, cfg)
}

// Reset binds the cache to rank r and window w under cfg and puts it in the
// state of a just-constructed instance, in place: empty table at cfg's
// geometry and one pristine free region of cfg's capacity (so adaptive
// growth of an earlier use is undone), the record slab rewound, the victim
// heap emptied, tick, compulsory-miss set, statistics and observation window
// zeroed. It is the only initialiser — New is Reset on the zero Cache — so a
// recycled instance and a fresh one cannot differ in anything the model can
// see; they differ in how much backing storage is already there. Returns c.
//
// Backing arrays are kept unless cfg could not use a quarter of one — the
// table's arrays and the slab's and heap's first allocation against the
// size cfg asks for, what a use grew (slab, heap, tree pool, compulsory-miss
// set) against the most records cfg's geometry can hold — so one query with
// a large cache does not pin its footprint in a pool for the pool's
// lifetime, and a steady stream of equal queries never reallocates.
//
// Reset panics on a writable window. It panics too on a cache that is
// mid-operation or has a miss in flight: such an instance was abandoned by an
// unwinding rank and its transfer belongs to a run that no longer exists.
func (c *Cache) Reset(r *rma.Rank, w *rma.Window, cfg Config) *Cache {
	if !w.ReadOnly() {
		panic(fmt.Sprintf("clampi: window %q is writable; a cache serves read-only windows only", w.Name()))
	}
	if c.busy {
		panic("clampi: Reset of a cache that is mid-operation")
	}
	if c.inflight != 0 {
		panic("clampi: Reset of a cache with an incomplete miss")
	}

	c.rank, c.win = r, w
	c.cfg = cfg.withDefaults()
	maxRegion := 0
	for t := 0; t < r.NumRanks(); t++ {
		if s := w.SizeAt(t); s > maxRegion {
			maxRegion = s
		}
	}
	c.coder = newKeyCoder(r.NumRanks(), maxRegion)

	// The slab and the heap start at a record per bucket — the table size is
	// the configuration's own estimate of the population (§III-B-1 sizes it
	// to the entries expected) — plus id 0 and the pristine free region, and
	// grow by append, a quarter at a time, when the estimate was low. They
	// are released when the configuration that sized them asked for over four
	// times as much, or a use grew them past four times what cfg's geometry
	// can fill: every entry holds a slot and at least a byte of the buffer,
	// and free regions alternate with entries.
	most := 2*min(c.cfg.Buckets*c.cfg.Assoc, max(c.cfg.Capacity, 0)) + 2
	hint := min(c.cfg.Buckets+2, most)
	if c.sized == 0 || c.sized > 4*hint || max(cap(c.alloc.recs), cap(c.victims.h)) > 4*most {
		c.sized = hint
		c.alloc = allocator{recs: make([]record, 1, hint)}
		c.victims = victimHeap{h: make([]heapItem, 0, hint), pos: make([]int32, 0, hint)}
	}
	c.seen.clearFor(min(max(c.cfg.Capacity/64, 64), 1<<14), most)
	c.empty()
	c.tick = 0
	c.stats = Stats{}
	c.obsOps, c.obsConflicts, c.obsCapacity = 0, 0, 0
	return c
}

// MemBytes returns the bytes of every backing array the instance holds:
// table lanes and slots, record slab, victim heap and positions, free-region
// tree nodes and compulsory-miss set. (Pooled requests, a handful of small
// objects per instance, are not arrays and not counted.) It is what an idle
// instance in a pool costs its snapshot.
func (c *Cache) MemBytes() int {
	return 8*cap(c.tab.lane) + 4*cap(c.tab.ents) +
		int(unsafe.Sizeof(record{}))*cap(c.alloc.recs) + int(unsafe.Sizeof(avlNode{}))*c.alloc.tree.made +
		int(unsafe.Sizeof(heapItem{}))*cap(c.victims.h) + 4*cap(c.victims.pos) +
		8*len(c.seen.tab)
}

// Rank returns the owning rank.
func (c *Cache) Rank() *rma.Rank { return c.rank }

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
		v.pop()
		v.push(it.id, prio, stamp)
	}
	return false
}

// Request is one cached get, from issue to the last read of its data: served
// at issue (a hit, or a local access that bypassed the cache), or a miss whose
// transfer completes — and whose region is offered to the cache — at Wait and
// nowhere else. The transfer is a rank.GetInto into the request's own
// rma.Request. One body (get) fills a request of either owner:
//
//   - Get/GetScored return a pooled request from the cache's free list; call
//     Release when done with the data.
//   - GetInto fills a request the caller owns, typically a value in its own
//     pipeline state: no free list, and it is never released.
//
// Data read over a read-only window aliases the window and outlives the
// request; over a compressed window it lives in storage the request owns,
// valid until Release (pooled) or the request's next use (caller-owned).
type Request struct {
	cache  *Cache
	hit    bool // nothing to complete: a cache hit or a local bypass
	done   bool // a miss, completed: transfer finished, region offered to the cache
	xfer   bool // the data is own's: a miss or a local bypass
	owned  bool // caller-owned (GetInto): never on the free list
	pooled bool // currently on the free list (double-release guard)

	// A cache hit's data: window views, or a decode into vbuf (compressed
	// window: entries store no bytes, the run is decoded again).
	data  []byte
	u64   []uint64
	verts []graph.V
	vbuf  []graph.V

	// A miss's key and score, kept for the insertion at completion, and the
	// transfer the data of a miss or a local bypass is read from.
	size  int
	pk, h uint64
	score float64 // application-defined, NaN if unset
	own   rma.Request
}

func (c *Cache) newReq() *Request {
	if n := len(c.reqFree); n > 0 {
		q := c.reqFree[n-1]
		c.reqFree[n-1] = nil
		c.reqFree = c.reqFree[:n-1]
		q.pooled = false
		return q
	}
	return &Request{cache: c}
}

// Release returns a pooled request to the free list. Releasing a miss that
// has not completed panics: Wait first.
func (q *Request) Release() {
	// Precondition checks precede enter(): these panics are recoverable
	// contract assertions (tests exercise them) and must not leave the
	// single-owner flag set.
	if q.owned {
		panic("clampi: Release of a caller-owned request (GetInto); the caller owns its storage")
	}
	if q.pooled {
		panic("clampi: Release of an already-released request")
	}
	if !q.hit && !q.done {
		panic("clampi: Release of an incomplete miss; Wait first")
	}
	c := q.cache
	c.enter()
	// Field by field (a whole-struct literal is built on the stack and
	// copied over, once per access); q.cache never changes.
	q.hit, q.done, q.xfer, q.pooled = false, false, false, true
	q.data, q.u64, q.verts = nil, nil, nil
	q.vbuf = q.vbuf[:0]
	c.reqFree = append(c.reqFree, q)
	c.leave()
}

// Hit reports whether the request was served from cache.
func (q *Request) Hit() bool { return q.hit }

// Done reports whether the data accessors may be called: false for a miss
// until Wait, and for a request never issued.
func (q *Request) Done() bool { return q.hit || q.done }

// Wait completes this request: on a miss it waits for the transfer and
// offers the region to the cache.
func (q *Request) Wait() {
	if q.hit || q.done {
		return
	}
	c := q.cache
	c.enter()
	q.own.Wait()
	c.complete(q)
	c.leave()
}

// Data returns the bytes read from a byte window; treat them as read-only
// (see Request for how long they stay valid). Panics if called before the
// request completed, like the underlying RMA request.
func (q *Request) Data() []byte {
	if q.xfer {
		return q.own.Data() // panics before completion, like rma
	}
	return q.data
}

// Uint64s returns the typed view read from a ReadOnlyUint64s window.
func (q *Request) Uint64s() []uint64 {
	if q.xfer {
		return q.own.Uint64s()
	}
	return q.u64
}

// Vertices returns the vertex list read from a vertex window.
func (q *Request) Vertices() []graph.V {
	if q.xfer {
		return q.own.Vertices()
	}
	return q.verts
}

// enter asserts the single-owner contract on an operational entry point;
// leave clears it. See Cache.busy.
func (c *Cache) enter() {
	if c.busy {
		panic("clampi: concurrent or reentrant use of a single-owner cache")
	}
	c.busy = true
}

func (c *Cache) leave() { c.busy = false }

// enterGet is enter for the three get entry points. Like Release's, its
// contract panic precedes enter(), so a caller that recovers it finds the
// cache usable.
func (c *Cache) enterGet(target, offset, size int) {
	if target != c.rank.ID() && !c.coder.fits(target, offset, size) {
		// The seed compared three exact ints and panicked later inside
		// rma on the out-of-window access; packed keys would alias a
		// valid entry instead, so fail at the boundary.
		panic(fmt.Sprintf("clampi: get (target %d, offset %d, size %d) outside window geometry", target, offset, size))
	}
	c.enter()
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
	c.enterGet(target, offset, size)
	q := c.newReq()
	c.get(q, target, offset, size, score)
	c.leave()
	return q
}

// GetInto is GetScored into a caller-owned request (see Request; a NaN score
// is Get): q is reset and filled in place, keeping its buffers, so a request
// embedded in the caller's state serves every access of a pipeline slot with
// no pool traffic. Statistics, charges and cache transitions are exactly
// GetScored's.
func (c *Cache) GetInto(q *Request, target, offset, size int, score float64) {
	if q.xfer && !q.Done() {
		panic("clampi: GetInto on a request whose miss is still in flight; Wait first")
	}
	c.enterGet(target, offset, size)
	q.cache, q.owned = c, true
	q.hit, q.done, q.xfer = false, false, false
	q.data, q.u64, q.verts = nil, nil, nil
	c.get(q, target, offset, size, score)
	c.leave()
}

// get fills q, a reset request of either ownership, for one access.
func (c *Cache) get(q *Request, target, offset, size int, score float64) {
	// Local accesses bypass the cache entirely: the partition owner reads
	// its own memory (Fig. 3: node A reads adj(0), adj(2) locally).
	if target == c.rank.ID() {
		q.hit, q.xfer = true, true
		c.rank.GetInto(&q.own, c.win, target, offset, size)
		return
	}
	pk := c.coder.pack(target, offset, size)
	h := c.coder.hash(target, offset, size)
	c.obsOps++
	if c.tab.lookupTouch(pk, h, c.tick+1) >= 0 {
		c.tick++
		c.stats.Hits++
		c.stats.HitBytes += int64(size)
		c.stats.HitTime += c.rank.ChargeCacheHit(size)
		q.hit = true
		// The entry is bookkeeping and never touched: the data is the
		// window's own.
		switch c.win.Kind() {
		case rma.ReadOnlyBytes:
			q.data = c.win.ViewBytes(target, offset, size)
		case rma.ReadOnlyUint64s:
			q.u64 = c.win.ViewUint64s(target, offset, size)
		case rma.ReadOnlyVertices:
			q.verts = c.win.ViewVertices(target, offset, size)
		case rma.CompressedVertices:
			q.verts = c.win.ReadVertices(target, offset, size, q.vbuf)
			q.vbuf = q.verts
		}
		return
	}
	// Miss: issue the real RMA get; the entry is inserted when the
	// transfer completes (at Wait), since only then is the data known.
	if c.seen.addIfMissing(pk) {
		c.stats.CompulsoryMisses++
	}
	c.stats.Misses++
	c.stats.MissBytes += int64(size)
	c.stats.OverheadTime += c.rank.ChargeCacheMissOverhead()
	q.size, q.pk, q.h, q.score, q.xfer = size, pk, h, score, true
	c.rank.GetInto(&q.own, c.win, target, offset, size)
	c.inflight++
	c.maybeResize()
}

// complete offers a miss whose transfer finished to the cache (Fig. 3,
// step 6).
func (c *Cache) complete(q *Request) {
	q.done = true
	c.inflight--
	// Storing an entry costs real work: hash insert, allocator search,
	// and copying the retrieved bytes into the memory buffer. Together
	// with CacheMissOverhead this is the cache-management overhead that
	// makes caching a net loss when compulsory misses dominate (§IV-D-2
	// scenario 2, the LiveJournal case).
	c.stats.OverheadTime += c.rank.ChargeCacheManage(q.size)
	c.insert(q.pk, q.h, q.size, q.score)
}

// insert stores a region under the packed key pk (bucket hash h), evicting
// victims as needed. CLaMPI caches a missing entry only if it has (or can
// free) the resources to store it.
func (c *Cache) insert(pk, h uint64, size int, score float64) {
	if c.cfg.Capacity <= 0 || size > c.cfg.Capacity || size == 0 {
		c.stats.RejectedInserts++
		return
	}
	if c.tab.lookup(pk, h) >= 0 {
		return // duplicate in-flight get; entry already present
	}
	c.tick++
	scored := !math.IsNaN(score)
	newPrio := float64(c.tick)
	if scored {
		newPrio = score
	}

	// Hash-table space: a full bucket forces a conflict eviction.
	slot := c.tab.freeSlot(h)
	if slot < 0 {
		// The victim is the bucket's entry of strictly minimal priority, in
		// slot order (the seed's scan order and tie rule).
		base := c.tab.bucketOf(h) * c.tab.assoc
		victim, vPrio := uint32(0), math.Inf(1)
		for _, id := range c.tab.ents[base : base+c.tab.assoc] {
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
		c.obsConflicts++
		slot = c.tab.freeSlot(h)
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
		c.obsCapacity++
		id, ok = c.alloc.alloc(size)
	}

	e := &c.alloc.recs[id]
	e.score = score
	e.slot, e.meta = uint32(slot), c.tab.insertAt(slot, id, pk, c.tick)
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

// SetScore assigns (or updates) the application-defined score of an already
// cached entry, as the modified CLaMPI accepts from the user (§III-B-2).
// It is a no-op if the entry is not cached.
func (c *Cache) SetScore(target, offset, size int, score float64) {
	c.enter()
	if c.coder.fits(target, offset, size) {
		// (Nothing outside the window geometry is ever cached.)
		pk := c.coder.pack(target, offset, size)
		h := c.coder.hash(target, offset, size)
		if slot := c.tab.lookup(pk, h); slot >= 0 {
			id := c.tab.ents[slot]
			e := &c.alloc.recs[id]
			e.score = score
			c.tab.bumpStamp(e.meta)
			c.victims.update(id, c.priority(e), c.tab.stamp(e.meta))
		}
	}
	c.leave()
}

// Contains reports whether the exact region is currently cached.
func (c *Cache) Contains(target, offset, size int) bool {
	if !c.coder.fits(target, offset, size) {
		return false
	}
	return c.tab.lookup(c.coder.pack(target, offset, size), c.coder.hash(target, offset, size)) >= 0
}

// Region is the window coordinate of one get.
type Region struct{ Target, Offset, Size int }

// Preload reads, for each region, the two words a get of it would miss the
// host's cache on first — the head of the bucket lane it probes and, for the
// miss path, its slot in the compulsory-miss set — so that their lines are
// resident by the time the gets arrive. Every address is computed before any
// is loaded, so the loads issue back to back and their misses overlap, where
// the gets would take them one at a time (lcc's stageAhead calls this for a
// batch of upcoming gets). It is invisible to the model and to the cache: no
// statistic, tick, stamp or entry changes, and it is not an operation of the
// single-owner contract (no enter). A region outside the window geometry is
// skipped. The returned sum of the words means nothing; it is there so that
// the loads are not dead code.
func (c *Cache) Preload(regions []Region) (sum uint64) {
	var lane, seen [16]int
	for len(regions) > 0 {
		chunk := regions[:min(len(regions), len(lane))]
		regions = regions[len(chunk):]
		n := 0
		for _, r := range chunk {
			if c.coder.fits(r.Target, r.Offset, r.Size) {
				lane[n] = c.tab.bucketOf(c.coder.hash(r.Target, r.Offset, r.Size)) * 2 * c.tab.assoc
				seen[n] = c.seen.slot(c.coder.pack(r.Target, r.Offset, r.Size))
				n++
			}
		}
		for i := range n {
			sum += c.tab.lane[lane[i]] + c.seen.tab[seen[i]]
		}
	}
	return sum
}

// Flush empties the cache: the adaptive heuristic's table resize and a
// degraded access (Available) take it. All structures are cleared in place: the heap is truncated, the slab rewinds to the one record of a
// pristine free region, and the table keeps its arrays unless the adaptive
// heuristic grew it past them.
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

// Available reports whether the cache can serve the next access,
// consulting the rank's deterministic fault schedule (fault.Spec
// CacheFailPct). An injected CLaMPI fault makes the cache transiently
// unavailable: the resident entries are flushed — their state is presumed
// lost with the failed cache process — the degraded access is counted, and
// the caller falls back to the direct-RMA fetch flavor for this access
// (the engine's degradation ladder, DESIGN.md §7). Results are unaffected
// either way: the cache only ever mirrors immutable window bytes, so
// serving the access uncached returns the same data at a higher simulated
// cost. With no fault schedule installed the check is one nil comparison.
func (c *Cache) Available() bool {
	if !c.rank.CacheFault() {
		return true
	}
	c.enter()
	c.stats.DegradedOps++
	c.Flush()
	c.leave()
	return false
}

// maybeResize implements the adaptive parameter-tuning heuristic (§II-F:
// CLaMPI "automatically resizes the hash table and the memory buffer by
// observing indicators such as cache misses, conflicts in the hash table,
// and evictions due to lack of space"). Every observation window:
//
//   - if conflict evictions dominate, the hash table doubles and the
//     cache is flushed (the behaviour §III-B-1 works around by choosing
//     good initial sizes);
//   - if capacity evictions dominate and Config.MaxCapacity allows, the
//     memory buffer doubles. Growth extends the region in place, so
//     cached entries survive; the realloc copy of the resident bytes is
//     charged as management overhead.
func (c *Cache) maybeResize() {
	const window = 1024
	if !c.cfg.Adaptive || c.obsOps < window {
		return
	}
	conflictRate := float64(c.obsConflicts) / float64(c.obsOps)
	capacityRate := float64(c.obsCapacity) / float64(c.obsOps)
	c.obsOps, c.obsConflicts, c.obsCapacity = 0, 0, 0
	if conflictRate > 0.10 && c.cfg.Buckets*2 <= c.cfg.MaxBuckets {
		c.cfg.Buckets *= 2
		c.stats.Resizes++
		c.Flush()
		return
	}
	if capacityRate > 0.10 && c.cfg.MaxCapacity > 0 && 2*c.cfg.Capacity <= c.cfg.MaxCapacity {
		c.stats.OverheadTime += c.rank.ChargeCacheManage(c.alloc.used)
		c.alloc.grow(c.cfg.Capacity)
		c.cfg.Capacity *= 2
		c.stats.BufferResizes++
	}
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
		if int(e.slot) != slot || key == 0 || c.tab.lookup(key, c.coder.hash(c.coder.unpack(key))) != slot {
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
