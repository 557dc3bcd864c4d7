package clampi

import "fmt"

// record is one extent of the cache's memory buffer and, while that extent
// is allocated, the cache entry living in it. Records sit in one slab and
// name each other by uint32 id — id 0 is "none" — so the hash table, the
// victim heap and the free-region tree hold four-byte ids instead of
// pointers, and emptying the cache is rewinding the slab.
//
// All extents — allocated and free — form an address-ordered doubly-linked
// list that tiles [0, capacity) with no gaps (boundary-tag style): an
// extent's coalescing partners are exactly its prev/next neighbours, which
// makes freeing O(1) and answers the adjacent-free query behind the
// positional eviction score. An entry's key, LRU tick and revalidation stamp
// live in its table lane (see table), which the hit path never leaves; its
// bytes are the window's own, never copied.
type record struct {
	off, size  int     // extent in the memory buffer (size = the get's size)
	prev, next uint32  // address-order neighbours; next links the free list of unused records
	score      float64 // application-defined score; NaN = unset (§III-B-2)
	slot       uint32  // home table slot of an entry; freeSlot marks a free region
	meta       uint32  // index of the slot's meta word in table.lane
}

// freeSlot in record.slot marks a free region (no table has 2^32-1 slots:
// clearFor refuses a lane array past uint32 indexing).
const freeSlot = ^uint32(0)

// allocator manages the cache's memory buffer: a contiguous region of
// `capacity` bytes from which variable-size entries are carved. Free regions
// are additionally indexed by an AVL tree keyed by (size, offset) for
// best-fit allocation (§II-F). External fragmentation is real in this
// design: an allocation fails when no single free region is large enough,
// even if the total free space would suffice — exactly the condition
// CLaMPI's positional eviction score exists to fight.
//
// It owns the record slab: a bump pointer (len(recs)) plus a free list of
// returned records, so steady-state alloc/free/coalesce traffic performs no
// heap allocations and reset() restores the pristine one-free-region state
// by truncating the slab. The slab grows by append, so no *record may be
// held across newRec.
type allocator struct {
	capacity   int
	used       int
	tree       avlTree
	recs       []record // recs[0] is never handed out
	unused     uint32   // free list of returned records
	head, tail uint32   // address-ordered list, lowest offset first
}

func newAllocator(capacity int) *allocator {
	a := &allocator{}
	a.reset(capacity)
	return a
}

// reset rewinds the slab and restores the single pristine free region of the
// given positive capacity, without reallocating anything.
func (a *allocator) reset(capacity int) {
	a.recs = append(a.recs[:0], record{})
	a.unused, a.head, a.tail = 0, 0, 0
	a.tree.reset()
	a.capacity, a.used = capacity, 0
	a.head = a.newRec(record{size: capacity, slot: freeSlot})
	a.tail = a.head
	a.tree.insert(capacity, 0, a.head)
}

func (a *allocator) newRec(r record) uint32 {
	id := a.unused
	if id == 0 {
		a.recs = append(a.recs, r)
		return uint32(len(a.recs) - 1)
	}
	a.unused = a.recs[id].next
	a.recs[id] = r
	return id
}

func (a *allocator) putRec(id uint32) {
	a.recs[id].next = a.unused
	a.unused = id
}

// mustRemove drops a free region's tree node, panicking if the tree and the
// extent list ever desynchronize — fail fast at the corruption site rather
// than letting bestFit hand out overlapping regions later.
func (a *allocator) mustRemove(b *record) {
	if !a.tree.remove(b.size, b.off) {
		panic(fmt.Sprintf("clampi: allocator free-list corruption at [%d,+%d)", b.off, b.size))
	}
}

// alloc reserves size bytes, best-fit, and returns the allocated record's
// id. Its offset is the position in the simulated memory buffer.
func (a *allocator) alloc(size int) (uint32, bool) {
	if size <= 0 {
		return 0, false
	}
	n, pred := a.tree.bestFit(size)
	if n == nil {
		return 0, false
	}
	id := n.id
	a.used += size
	if b := &a.recs[id]; b.size == size {
		a.mustRemove(b)
		b.slot = 0
		return id, true
	}
	// Carve the allocated head off b; the tail of b stays free, which
	// matches the seed allocator's best-fit split (entry at the region's
	// start, remainder re-freed).
	nb := a.newRec(record{off: a.recs[id].off, size: size, prev: a.recs[id].prev, next: id})
	b := &a.recs[id]
	if b.prev != 0 {
		a.recs[b.prev].next = nb
	} else {
		a.head = nb
	}
	b.prev = nb
	if rest, at := b.size-size, b.off+size; pred == nil || regionLess(pred.size, pred.off, rest, at) {
		// The region shrank but still orders after its predecessor, so its
		// node keeps its place: always so for the least region, and for a
		// carve that leaves more than the next smaller region holds — from
		// the tail, say, while the holes below it are smaller.
		n.size, n.off = rest, at
	} else {
		a.mustRemove(b)
		a.tree.insert(rest, at, id)
	}
	b.off += size
	b.size -= size
	return nb, true
}

// free releases an allocated extent, coalescing with free neighbours in O(1)
// via the address links. The neighbours' records are absorbed and recycled.
func (a *allocator) free(id uint32) {
	b := &a.recs[id]
	if id == 0 || b.slot == freeSlot {
		return
	}
	a.used -= b.size
	if l := b.prev; l != 0 && a.recs[l].slot == freeSlot {
		lr := &a.recs[l]
		a.mustRemove(lr)
		b.off = lr.off
		b.size += lr.size
		b.prev = lr.prev
		if lr.prev != 0 {
			a.recs[lr.prev].next = id
		} else {
			a.head = id
		}
		a.putRec(l)
	}
	if r := b.next; r != 0 && a.recs[r].slot == freeSlot {
		rr := &a.recs[r]
		a.mustRemove(rr)
		b.size += rr.size
		b.next = rr.next
		if rr.next != 0 {
			a.recs[rr.next].prev = id
		} else {
			a.tail = id
		}
		a.putRec(r)
	}
	b.slot = freeSlot
	a.tree.insert(b.size, b.off, id)
}

// freeBytes returns the total number of unallocated bytes.
func (a *allocator) freeBytes() int { return a.capacity - a.used }

// largestFree returns the size of the largest single free region.
func (a *allocator) largestFree() int {
	n := a.tree.max()
	if n == nil {
		return 0
	}
	return n.size
}

// adjacentFree returns how many free bytes border the allocated extent on
// either side — the merge potential that feeds the positional component of
// the eviction score. Two hops through the slab, no map lookups.
func (a *allocator) adjacentFree(b *record) int {
	adj := 0
	if l := &a.recs[b.prev]; b.prev != 0 && l.slot == freeSlot {
		adj += l.size
	}
	if r := &a.recs[b.next]; b.next != 0 && r.slot == freeSlot {
		adj += r.size
	}
	return adj
}

// fragmentation returns 1 - largestFree/freeBytes: 0 when all free space is
// contiguous, approaching 1 as it shatters. Reported in cache stats.
func (a *allocator) fragmentation() float64 {
	free := a.freeBytes()
	if free == 0 {
		return 0
	}
	return 1 - float64(a.largestFree())/float64(free)
}

// check verifies allocator invariants (tests only): the extent list tiles
// [0, capacity) exactly, free regions are fully coalesced and indexed by the
// tree under their own ids, every record is either in the list or unused,
// and used/free byte accounting matches.
func (a *allocator) check() error {
	if n := a.tree.checkBalance(); n < 0 {
		return fmt.Errorf("clampi: AVL invariants violated")
	}
	treeRegions := map[[2]int]uint32{}
	treeTotal := 0
	a.tree.walk(func(n *avlNode) {
		treeRegions[[2]int{n.off, n.size}] = n.id
		treeTotal += n.size
	})
	if free := a.capacity - a.used; treeTotal != free {
		return fmt.Errorf("clampi: free bytes %d != tracked %d", treeTotal, free)
	}
	pos, usedSum, freeCount, listed := 0, 0, 0, 0
	var prev uint32
	for id := a.head; id != 0; id = a.recs[id].next {
		b := &a.recs[id]
		if b.off != pos {
			return fmt.Errorf("clampi: extent list gap: extent at %d, expected %d", b.off, pos)
		}
		if b.size <= 0 {
			return fmt.Errorf("clampi: non-positive extent size %d at %d", b.size, b.off)
		}
		if b.prev != prev {
			return fmt.Errorf("clampi: broken prev link at offset %d", b.off)
		}
		if b.slot == freeSlot {
			freeCount++
			if prev != 0 && a.recs[prev].slot == freeSlot {
				return fmt.Errorf("clampi: uncoalesced adjacent free regions at %d", b.off)
			}
			if tid, ok := treeRegions[[2]int{b.off, b.size}]; !ok || tid != id {
				return fmt.Errorf("clampi: free region [%d,+%d) missing from tree or indexed under record %d, not %d", b.off, b.size, tid, id)
			}
		} else {
			usedSum += b.size
		}
		pos += b.size
		prev = id
		listed++
	}
	if pos != a.capacity {
		return fmt.Errorf("clampi: extent list covers %d bytes of %d", pos, a.capacity)
	}
	if prev != a.tail {
		return fmt.Errorf("clampi: tail link out of sync")
	}
	if usedSum != a.used {
		return fmt.Errorf("clampi: allocated extents hold %d bytes but used=%d", usedSum, a.used)
	}
	if freeCount != len(treeRegions) || freeCount != a.tree.len() {
		return fmt.Errorf("clampi: tree holds %d regions, list holds %d", a.tree.len(), freeCount)
	}
	for id := a.unused; id != 0; id = a.recs[id].next {
		listed++
	}
	if listed != len(a.recs)-1 {
		return fmt.Errorf("clampi: %d records listed or unused of %d in the slab", listed, len(a.recs)-1)
	}
	return nil
}
