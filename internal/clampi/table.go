package clampi

import "math"

// entry is one cached region: the bookkeeping for a completed RMA get used
// in lookup and victim selection. The hit path never touches this struct
// for read-only windows — the LRU tick and revalidation stamp live in the
// table's bucket lane next to the key (see table) — so an entry is only
// dereferenced on insert, eviction, heap maintenance and writable-window
// hits. Its extent (including the region size) lives in blk; bytes cached
// over writable windows live in a side record so read-only caches (the
// engines' case) pay nothing for them.
type entry struct {
	key      uint64     // packed (target, offset, size); see keyCoder
	blk      *block     // extent in the memory buffer (blk.size = get size)
	appScore float64    // application-defined score; NaN = unset (§III-B-2)
	bytes    *entryData // writable-window copy; nil on read-only windows
	slot     int32      // home slot in the table (bucket*assoc + way)
	heapIdx  int32      // position in the victim heap, -1 if absent
	dead     bool
}

// entryData holds a writable-window entry's byte copy; data aliases buf.
// The record stays attached to its entry across recycles, so the backing
// buffer is reused.
type entryData struct {
	data, buf []byte
}

func (e *entry) size() int { return e.blk.size }

func (e *entry) hasAppScore() bool { return !math.IsNaN(e.appScore) }

// entryPool recycles entry records. Fresh records come from slabs whose size
// doubles, so filling a cache of N entries costs O(log N) allocations and
// steady-state churn costs none.
type entryPool struct {
	free []*entry
	slab int
}

func (p *entryPool) get() *entry {
	if len(p.free) == 0 {
		if p.slab == 0 {
			p.slab = 64
		}
		entries := make([]entry, p.slab)
		if p.slab < 16384 {
			p.slab *= 2
		}
		for i := range entries {
			p.free = append(p.free, &entries[i])
		}
	}
	n := len(p.free)
	e := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	bytes := e.bytes
	if bytes != nil {
		bytes.data = nil
		bytes.buf = bytes.buf[:0]
	}
	*e = entry{bytes: bytes, heapIdx: -1, appScore: math.NaN()}
	return e
}

func (p *entryPool) put(e *entry) {
	p.free = append(p.free, e)
}

// table is the set-associative hash index. A lookup probes the `assoc`
// slots of one bucket; inserting into a full bucket forces a *conflict*
// eviction, distinct from the capacity evictions forced by the memory
// buffer (CLaMPI's adaptive heuristic watches the two separately).
//
// The bucket of a key is h % buckets where h is the keyCoder hash — a
// mapping pinned by the golden tests (it decides which keys conflict), so
// the table takes the hash as an argument rather than choosing its own.
//
// Layout: each bucket owns one contiguous "lane" of 2*assoc words —
// assoc packed keys followed by assoc meta words. A meta word carries the
// entry's LRU tick (high 40 bits) and revalidation stamp (low 24 bits), so
// a read-only-window hit probes the keys AND refreshes tick+stamp within
// one cache line (64 bytes at the default assoc of 4) and never touches
// the entry struct. Tick truncation starts above 2^40 accesses per cache
// and a stamp only aliases after exactly 2^24 bumps between a heap
// snapshot and its revalidation — both far past any plausible epoch.
// A packed key is never 0 for a stored entry (the size field is non-zero
// for every insertable region), so 0 doubles as the empty-slot sentinel.
type table struct {
	buckets int
	assoc   int
	magic   divMagic // divisionless h % buckets (bit-exact; see divMagic)
	lane    []uint64 // buckets * 2*assoc: [assoc keys][assoc meta] per bucket
	ents    []*entry // buckets*assoc
	n       int
}

const (
	metaStampBits = 24
	metaStampMask = 1<<metaStampBits - 1
)

func newTable(buckets, assoc int) *table {
	t := &table{}
	t.clearFor(buckets, assoc)
	return t
}

// clearFor empties the table for the given geometry, reusing the backing
// arrays whenever they are large enough: always on the steady-state flush
// (unchanged geometry), and when a recycled cache returns to a geometry it
// has held before (Cache.Reset undoing adaptive growth).
func (t *table) clearFor(buckets, assoc int) {
	if buckets < 1 {
		buckets = 1
	}
	if assoc < 1 {
		assoc = 1
	}
	if t.buckets != buckets || t.assoc != assoc {
		t.buckets, t.assoc = buckets, assoc
		t.magic = newDivMagic(uint64(buckets))
	}
	t.n = 0
	nl, ne := buckets*2*assoc, buckets*assoc
	if cap(t.lane) < nl || cap(t.ents) < ne {
		t.lane = make([]uint64, nl)
		t.ents = make([]*entry, ne)
		return
	}
	// Zero the words in use, then reslice: everything past len is zero
	// already (make zeroed it, and a shrink zeroes before it reslices).
	for i := range t.lane {
		t.lane[i] = 0
	}
	for i := range t.ents {
		t.ents[i] = nil
	}
	t.lane, t.ents = t.lane[:nl], t.ents[:ne]
}

func (t *table) bucketOf(h uint64) int { return int(t.magic.mod(h)) }

// lookup returns the slot index (bucket*assoc + way) holding packed key k,
// or -1. The probe walks only the bucket's key words. Key 0 — the only
// packable coordinate with size 0 — is never stored (insert rejects empty
// regions), and must not match the empty-slot sentinel.
func (t *table) lookup(k, h uint64) int {
	if k == 0 {
		return -1
	}
	b := t.bucketOf(h)
	base := b * 2 * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.lane[base+i] == k {
			return b*t.assoc + i
		}
	}
	return -1
}

// lookupTouch is lookup fused with the hit-path meta refresh: on a match
// the slot's tick is replaced and its stamp incremented in the same lane
// line the probe just read, with no slot→bucket back-derivation. Misses
// leave the table untouched.
func (t *table) lookupTouch(k, h, tick uint64) int {
	if k == 0 {
		return -1
	}
	b := t.bucketOf(h)
	base := b * 2 * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.lane[base+i] == k {
			mi := base + t.assoc + i
			m := t.lane[mi]
			t.lane[mi] = tick<<metaStampBits | (m+1)&metaStampMask
			return b*t.assoc + i
		}
	}
	return -1
}

// metaIdx maps a slot index to its meta word in the lane array.
func (t *table) metaIdx(slot int) int {
	b, i := slot/t.assoc, slot%t.assoc
	return b*2*t.assoc + t.assoc + i
}

// tickOf returns the slot's LRU tick; stampOf its revalidation stamp.
func (t *table) tickOf(slot int) uint64  { return t.lane[t.metaIdx(slot)] >> metaStampBits }
func (t *table) stampOf(slot int) uint64 { return t.lane[t.metaIdx(slot)] & metaStampMask }

// bumpStamp invalidates outstanding heap snapshots of the slot's entry
// without touching its tick (score updates).
func (t *table) bumpStamp(slot int) {
	mi := t.metaIdx(slot)
	m := t.lane[mi]
	t.lane[mi] = m&^uint64(metaStampMask) | (m+1)&metaStampMask
}

// entryAt returns the entry stored in slot (nil if empty).
func (t *table) entryAt(slot int) *entry { return t.ents[slot] }

// freeSlot returns a free slot index in the key's bucket, or -1 if the
// bucket is full (a conflict). It probes the lane's key words (0 = empty,
// the same line the preceding lookup warmed) rather than the entry array.
func (t *table) freeSlot(h uint64) int {
	b := t.bucketOf(h)
	base := b * 2 * t.assoc
	for i := 0; i < t.assoc; i++ {
		if t.lane[base+i] == 0 {
			return b*t.assoc + i
		}
	}
	return -1
}

// bucketVictim scans the key's bucket in slot order and returns the live
// entry with strictly minimal priority (the conflict-eviction victim), with
// its priority. Allocation-free replacement for collecting the bucket into
// a slice first; the scan order and strict-< tie rule match the seed.
func (t *table) bucketVictim(h uint64, prio func(*entry) float64) (*entry, float64) {
	base := t.bucketOf(h) * t.assoc
	var victim *entry
	vPrio := math.Inf(1)
	for i := 0; i < t.assoc; i++ {
		e := t.ents[base+i]
		if e == nil {
			continue
		}
		if p := prio(e); p < vPrio {
			victim, vPrio = e, p
		}
	}
	return victim, vPrio
}

// insertAt places e in slot idx (previously obtained from freeSlot) with
// the given insertion tick and a fresh stamp.
func (t *table) insertAt(idx int, e *entry, tick uint64) {
	e.slot = int32(idx)
	b, i := idx/t.assoc, idx%t.assoc
	t.lane[b*2*t.assoc+i] = e.key
	t.lane[b*2*t.assoc+t.assoc+i] = tick << metaStampBits
	t.ents[idx] = e
	t.n++
}

// remove unlinks e from the table.
func (t *table) remove(e *entry) {
	idx := int(e.slot)
	if t.ents[idx] == e {
		b, i := idx/t.assoc, idx%t.assoc
		t.lane[b*2*t.assoc+i] = 0
		t.ents[idx] = nil
		t.n--
	}
}

// each visits every live entry.
func (t *table) each(f func(e *entry)) {
	for _, e := range t.ents {
		if e != nil {
			f(e)
		}
	}
}

// --- victim heap (capacity-eviction candidates) ---------------------------

type heapItem struct {
	prio  float64
	stamp uint64
	e     *entry
}

// victimHeap yields entries in ascending priority with lazy revalidation:
// items are keyed by the priority observed when they were (re)pushed; an
// item whose entry died, whose stamp moved, or whose computed priority
// drifted (e.g. the positional component, which moves when neighbours are
// freed) is skipped on pop and, if alive, re-pushed with its current value.
//
// DETERMINISM CONTRACT: the pop order among equal-priority items — and the
// revalidation order for entries whose stale keys shadow their current
// ones — is an emergent property of the heap's array mechanics, and the
// golden tests pin simulated results that depend on it (the pinned cached
// run takes ~180k capacity evictions, ~53k of them with ties at the
// minimum). The sift routines below therefore replicate container/heap's
// push (append + siftUp) and pop (swap root/last + siftDown from the root)
// element movements exactly, and eviction keeps the seed's lazy shape:
// hits bump stamps without touching the heap, dead conflict victims stay
// as remnants until a pop collects them. Do not "optimize" the mechanics —
// eager invalidation or a different sift order silently changes eviction
// order and moves SimTime bits.
//
// Unlike the seed's snapshot heap, each entry appears at most once
// (entry.heapIdx tracks its position), so the heap is O(live entries):
// score updates re-key in place instead of stranding duplicate snapshots.
// Dead remnants are recycled to the entry pool as pops or resets collect
// them, via the free callback.
type victimHeap struct {
	h     []heapItem
	prio  func(*entry) float64
	stamp func(*entry) uint64 // current revalidation stamp of a live entry
	free  func(*entry)        // recycle collected dead entries; may be nil in tests
}

func newVictimHeap(prio func(*entry) float64, stamp func(*entry) uint64, free func(*entry)) *victimHeap {
	return &victimHeap{prio: prio, stamp: stamp, free: free}
}

func (v *victimHeap) len() int { return len(v.h) }

func (v *victimHeap) less(i, j int) bool { return v.h[i].prio < v.h[j].prio }

func (v *victimHeap) swap(i, j int) {
	v.h[i], v.h[j] = v.h[j], v.h[i]
	v.h[i].e.heapIdx = int32(i)
	v.h[j].e.heapIdx = int32(j)
}

// up and down are container/heap's sift routines verbatim (see the
// determinism contract above).
func (v *victimHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !v.less(j, i) {
			break
		}
		v.swap(i, j)
		j = i
	}
}

func (v *victimHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && v.less(j2, j1) {
			j = j2
		}
		if !v.less(j, i) {
			break
		}
		v.swap(i, j)
		i = j
	}
	return i > i0
}

// push keys e by its current priority and stamp.
func (v *victimHeap) push(e *entry) {
	v.h = append(v.h, heapItem{prio: v.prio(e), stamp: v.stamp(e), e: e})
	e.heapIdx = int32(len(v.h) - 1)
	v.up(int(e.heapIdx))
}

// pop removes and returns the root item.
func (v *victimHeap) pop() heapItem {
	n := len(v.h) - 1
	v.swap(0, n)
	v.down(0, n)
	it := v.h[n]
	v.h[n] = heapItem{}
	v.h = v.h[:n]
	it.e.heapIdx = -1
	return it
}

// update re-keys e in place after a score change (container/heap.Fix). This
// is the one deliberate divergence from the seed, which pushed a duplicate
// snapshot per update and let hit-heavy SetScore traffic grow the heap
// without bound; no golden configuration exercises score updates.
func (v *victimHeap) update(e *entry) {
	i := int(e.heapIdx)
	if i < 0 {
		v.push(e)
		return
	}
	v.h[i].prio = v.prio(e)
	v.h[i].stamp = v.stamp(e)
	if !v.down(i, len(v.h)) {
		v.up(i)
	}
}

func (v *victimHeap) collect(e *entry) {
	if v.free != nil {
		v.free(e)
	}
}

// popMin returns the live minimum-priority entry, or nil if none remain.
// Stale items (dead, stamp moved, or priority drifted) are skipped and, if
// alive, re-pushed with their current value and retried.
func (v *victimHeap) popMin() *entry {
	for len(v.h) > 0 {
		it := v.pop()
		if it.e.dead {
			v.collect(it.e)
			continue
		}
		if v.stamp(it.e) != it.stamp {
			v.push(it.e)
			continue
		}
		if cur := v.prio(it.e); cur != it.prio {
			v.push(it.e)
			continue
		}
		return it.e
	}
	return nil
}

// peekMinPrio returns the priority of the live minimum, or +Inf.
func (v *victimHeap) peekMinPrio() float64 {
	for len(v.h) > 0 {
		it := v.h[0]
		if it.e.dead || v.stamp(it.e) != it.stamp {
			v.pop()
			if it.e.dead {
				v.collect(it.e)
			} else {
				v.push(it.e)
			}
			continue
		}
		if cur := v.prio(it.e); cur != it.prio {
			v.pop()
			v.push(it.e)
			continue
		}
		return it.prio
	}
	return math.Inf(1)
}

// reset empties the heap in place, recycling every referenced entry (the
// cache marks all entries dead before flushing, and dead remnants are the
// only other population).
func (v *victimHeap) reset() {
	for i := range v.h {
		e := v.h[i].e
		v.h[i] = heapItem{}
		e.heapIdx = -1
		v.collect(e)
	}
	v.h = v.h[:0]
}
