package clampi

import "math"

// table is the set-associative hash index. A lookup probes the `assoc`
// slots of one bucket; inserting into a full bucket forces a *conflict*
// eviction, distinct from the capacity evictions forced by the memory
// buffer (Stats counts the two separately).
//
// The bucket of a key is h % buckets where h is the keyCoder hash — a
// mapping pinned by the golden tests (it decides which keys conflict), so
// the table takes the hash as an argument rather than choosing its own, once
// per access (laneOf; a Key carries the result).
//
// Layout: each bucket owns one contiguous "lane" of 2*assoc words —
// assoc packed keys followed by assoc meta words. A meta word carries the
// entry's LRU tick (high 40 bits) and revalidation stamp (low 24 bits), so
// a read-only-window hit probes the keys AND refreshes tick+stamp within
// one cache line (64 bytes at the default assoc of 4) and never touches
// the entry's record. Tick truncation starts above 2^40 accesses per cache
// and a stamp only aliases after exactly 2^24 bumps between a heap
// snapshot and its revalidation — both far past any plausible epoch.
// A packed key is never 0 for a stored entry (the size field is non-zero
// for every insertable region), so 0 doubles as the empty-slot sentinel.
type table struct {
	buckets int
	assoc   int
	magic   divMagic // divisionless h % buckets (bit-exact; see divMagic)
	lane    []uint64 // buckets * 2*assoc: [assoc keys][assoc meta] per bucket
	ents    []uint32 // buckets*assoc record ids, 0 = empty
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
// arrays when they are large enough and not more than four times too large:
// always on the steady-state flush (unchanged geometry) and when a recycled
// cache returns to a geometry near one it has held before; a table sized by
// a much larger configuration goes back to the collector.
func (t *table) clearFor(buckets, assoc int) {
	buckets, assoc = max(buckets, 1), max(assoc, 1)
	if t.buckets != buckets || t.assoc != assoc {
		t.buckets, t.assoc = buckets, assoc
		t.magic = newDivMagic(uint64(buckets))
	}
	t.n = 0
	nl, ne := buckets*2*assoc, buckets*assoc
	if nl > math.MaxUint32 {
		panic("clampi: hash table past 2^32 lane words")
	}
	if cap(t.lane) < nl || cap(t.lane) > 4*nl {
		t.lane = make([]uint64, nl)
		t.ents = make([]uint32, ne)
		return
	}
	// Zero the words in use, then reslice: everything past len is zero
	// already (make zeroed it, and a shrink zeroes before it reslices).
	clear(t.lane)
	clear(t.ents)
	t.lane, t.ents = t.lane[:nl], t.ents[:ne]
}

// laneOf returns the index of the first lane word of the bucket h selects.
func (t *table) laneOf(h uint64) uint32 { return uint32(int(t.magic.mod(h)) * 2 * t.assoc) }

// lookup returns the slot index (bucket*assoc + way = k.lane/2 + way)
// holding k, or -1. The probe walks only the bucket's key words. Key 0 — the
// only packable coordinate with size 0 — is never stored (insert rejects
// empty regions), and must not match the empty-slot sentinel.
func (t *table) lookup(k Key) int {
	if k.pk == 0 {
		return -1
	}
	for i, w := range t.lane[k.lane:][:t.assoc] {
		if w == k.pk {
			return int(k.lane/2) + i
		}
	}
	return -1
}

// lookupTouch is lookup fused with the hit-path meta refresh: on a match
// the slot's tick is replaced and its stamp incremented in the same lane
// line the probe just read. Misses leave the table untouched.
func (t *table) lookupTouch(k Key, tick uint64) int {
	if k.pk == 0 {
		return -1
	}
	base := int(k.lane)
	for i := 0; i < t.assoc; i++ {
		if t.lane[base+i] == k.pk {
			mi := base + t.assoc + i
			m := t.lane[mi]
			t.lane[mi] = tick<<metaStampBits | (m+1)&metaStampMask
			return base/2 + i
		}
	}
	return -1
}

// tick returns the LRU tick in meta word mi (record.meta); stamp its
// revalidation stamp.
func (t *table) tick(mi uint32) uint64  { return t.lane[mi] >> metaStampBits }
func (t *table) stamp(mi uint32) uint32 { return uint32(t.lane[mi] & metaStampMask) }

// freeWay returns a free way of k's bucket, or -1 if the bucket is full (a
// conflict). It probes the lane's key words (0 = empty, the same line the
// preceding lookup warmed) rather than the id array.
func (t *table) freeWay(k Key) int {
	for i, w := range t.lane[k.lane:][:t.assoc] {
		if w == 0 {
			return i
		}
	}
	return -1
}

// insertAt places record id under k in way `way` of its bucket (previously
// obtained from freeWay) with the given insertion tick and a fresh stamp,
// and returns the slot and the index of the slot's meta word: the record
// keeps both, so nothing after the insert derives them again.
func (t *table) insertAt(k Key, way int, id uint32, tick uint64) (slot, mi uint32) {
	slot, mi = k.lane/2+uint32(way), k.lane+uint32(t.assoc+way)
	t.lane[k.lane+uint32(way)] = k.pk
	t.lane[mi] = tick << metaStampBits
	t.ents[slot] = id
	t.n++
	return slot, mi
}

// remove empties slot idx, whose meta word is mi.
func (t *table) remove(idx, mi uint32) {
	t.lane[int(mi)-t.assoc] = 0
	t.ents[idx] = 0
	t.n--
}

// --- victim heap (capacity-eviction candidates) ---------------------------

// heapItem is an entry's snapshot in the victim heap: the priority and
// stamp observed when it was (re)pushed. id 0 is a tombstone: the entry was
// conflict-evicted while in the heap, and its record went back to the slab
// — possibly to a newcomer — at once.
type heapItem struct {
	prio  float64
	stamp uint32
	id    uint32
}

// victimHeap yields entries in ascending priority with lazy revalidation:
// items are keyed by the priority observed when they were (re)pushed; an
// item whose entry died, whose stamp moved, or whose computed priority
// drifted (e.g. the positional component, which moves when neighbours are
// freed) is dropped at the root and, if alive, re-pushed with its current
// value (Cache.settleVictims: priority and stamp need the record, the lane
// and the allocator). The heap itself is the array mechanics only.
//
// DETERMINISM CONTRACT: the pop order among equal-priority items — and the
// revalidation order for entries whose stale keys shadow their current
// ones — is an emergent property of the heap's array mechanics, and the
// golden tests pin simulated results that depend on it (the pinned cached
// run takes ~180k capacity evictions, ~53k of them with ties at the
// minimum). The sift routines below therefore leave the array exactly as
// container/heap's push (append + up) and pop (swap root/last + down from
// the root) would: they move a hole along the same path instead of swapping
// the travelling item into every level. up makes container/heap's
// comparison — the item against its parent — and pop walks container/heap's
// down path — the smaller child, right only if strictly less — bottom-up
// (see pop) to the same final placement. Eviction keeps the seed's lazy
// shape: hits bump stamps without touching the heap, dead conflict victims
// stay as tombstones until a pop collects them. Do not "optimize" the
// mechanics — eager invalidation, decrease-key, a d-ary heap or a different
// sift order silently changes eviction order and moves SimTime bits
// (TestVictimOrderDigest).
//
// Each entry appears at most once: pos[id] is its index in h (-1 when
// absent), kept in a dense array beside the heap so a sift touches no
// record. pos[0] is scratch — tombstones write their position there.
type victimHeap struct {
	h   []heapItem
	pos []int32
}

func (v *victimHeap) len() int { return len(v.h) }

// up sifts item x into place from index j.
func (v *victimHeap) up(j int, x heapItem) {
	for j > 0 {
		i := (j - 1) / 2
		if !(x.prio < v.h[i].prio) {
			break
		}
		v.h[j] = v.h[i]
		v.pos[v.h[j].id] = int32(j)
		j = i
	}
	v.h[j] = x
	v.pos[x.id] = int32(j)
}

// push adds id keyed by the given priority and stamp.
func (v *victimHeap) push(id uint32, prio float64, stamp uint32) {
	for int(id) >= len(v.pos) {
		v.pos = append(v.pos, -1)
	}
	v.h = append(v.h, heapItem{})
	v.up(len(v.h)-1, heapItem{prio, stamp, id})
}

// pop removes and returns the root item, sifting bottom-up: the root's hole
// walks to a leaf along container/heap's down path (the smaller child, right
// only if strictly less), then the last item climbs while the item above it
// is not below it. The path's items never decrease, so the climb stops where
// a top-down sift would — at the first path item not below the traveller —
// ties included, in about half a top-down sift's comparisons for a
// traveller bound for the bottom.
func (v *victimHeap) pop() heapItem {
	n := len(v.h) - 1
	it, x := v.h[0], v.h[n]
	h := v.h[:n]
	v.h = h
	if n > 0 {
		i := 0
		for j := 1; j < n; j = 2*i + 1 {
			if j+1 < n && h[j+1].prio < h[j].prio {
				j++
			}
			h[i] = h[j]
			v.pos[h[i].id] = int32(i)
			i = j
		}
		for i > 0 {
			p := (i - 1) / 2
			if h[p].prio < x.prio {
				break
			}
			h[i] = h[p]
			v.pos[h[i].id] = int32(i)
			i = p
		}
		h[i] = x
		v.pos[x.id] = int32(i)
	}
	v.pos[it.id] = -1
	return it
}

// bury turns id's item, if it has one, into a tombstone.
func (v *victimHeap) bury(id uint32) {
	if i := v.pos[id]; i >= 0 {
		v.h[i].id = 0
		v.pos[id] = -1
	}
}
