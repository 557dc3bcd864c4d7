package clampi

import "fmt"

// block is one region of the cache's memory buffer: either the extent of an
// allocated entry or a free region. All blocks — allocated and free — form
// an address-ordered doubly-linked list that tiles [0, capacity) with no
// gaps (boundary-tag style). The links make freeing O(1): a block's
// potential coalescing partners are exactly its prev/next neighbors, which
// replaces the byStart/byEnd offset maps the seed allocator used. The same
// hops answer the adjacent-free query behind the positional eviction score.
type block struct {
	off, size  int
	prev, next *block
	free       bool
	poolNext   *block // pool linkage while recycled
}

// allocator manages the cache's memory buffer: a contiguous region of
// `capacity` bytes from which variable-size entries are carved. Free blocks
// are additionally indexed by an AVL tree keyed by (size, offset) for
// best-fit allocation (§II-F). External fragmentation is real in this
// design: an allocation fails when no single free region is large enough,
// even if the total free space would suffice — exactly the condition
// CLaMPI's positional eviction score exists to fight.
//
// Blocks and tree nodes are pooled (slab-grown), so steady-state
// alloc/free/coalesce traffic performs no heap allocations, and reset()
// restores the pristine one-free-region state in place.
type allocator struct {
	capacity int
	used     int
	tree     avlTree
	head     *block // address-ordered list, lowest offset first
	tail     *block
	pool     *block
	slab     int
}

func newAllocator(capacity int) *allocator {
	a := &allocator{}
	a.init(capacity)
	return a
}

func (a *allocator) init(capacity int) {
	a.capacity = capacity
	a.used = 0
	if capacity > 0 {
		b := a.newBlock()
		b.off, b.size, b.free = 0, capacity, true
		a.head, a.tail = b, b
		a.tree.insert(b.size, b.off, b)
	}
}

// reset returns every block and tree node to the pools and restores the
// single pristine free region of the given capacity (the current one on a
// flush, the configured one when the cache is recycled after adaptive
// growth), without reallocating any structure.
func (a *allocator) reset(capacity int) {
	for b := a.head; b != nil; {
		next := b.next
		a.putBlock(b)
		b = next
	}
	a.head, a.tail = nil, nil
	a.tree.reset()
	a.init(capacity)
}

func (a *allocator) newBlock() *block {
	if a.pool == nil {
		if a.slab == 0 {
			a.slab = 32
		}
		blocks := make([]block, a.slab)
		if a.slab < 4096 {
			a.slab *= 2
		}
		for i := range blocks {
			blocks[i].poolNext = a.pool
			a.pool = &blocks[i]
		}
	}
	b := a.pool
	a.pool = b.poolNext
	*b = block{}
	return b
}

func (a *allocator) putBlock(b *block) {
	*b = block{poolNext: a.pool}
	a.pool = b
}

// mustRemove drops a free block's tree node, panicking if the tree and the
// block list ever desynchronize — fail fast at the corruption site rather
// than letting bestFit hand out overlapping regions later.
func (a *allocator) mustRemove(b *block) {
	if !a.tree.remove(b.size, b.off) {
		panic(fmt.Sprintf("clampi: allocator free-list corruption at [%d,+%d)", b.off, b.size))
	}
}

// alloc reserves size bytes, best-fit, and returns the allocated block.
// The block handle is what free and adjacentFree operate on; its offset is
// the position in the simulated memory buffer.
func (a *allocator) alloc(size int) (*block, bool) {
	if size <= 0 {
		return nil, false
	}
	n := a.tree.bestFit(size)
	if n == nil {
		return nil, false
	}
	b := n.blk
	a.mustRemove(b)
	a.used += size
	if b.size > size {
		// Carve the allocated head off b; the tail of b stays free, which
		// matches the seed allocator's best-fit split (entry at the
		// region's start, remainder re-freed).
		nb := a.newBlock()
		nb.off, nb.size = b.off, size
		nb.prev, nb.next = b.prev, b
		if b.prev != nil {
			b.prev.next = nb
		} else {
			a.head = nb
		}
		b.prev = nb
		b.off += size
		b.size -= size
		a.tree.insert(b.size, b.off, b)
		return nb, true
	}
	b.free = false
	return b, true
}

// free releases an allocated block, coalescing with free neighbors in O(1)
// via the address links. The neighbors' blocks are absorbed and recycled.
func (a *allocator) free(b *block) {
	if b == nil || b.free {
		return
	}
	a.used -= b.size
	if l := b.prev; l != nil && l.free {
		a.mustRemove(l)
		b.off = l.off
		b.size += l.size
		b.prev = l.prev
		if l.prev != nil {
			l.prev.next = b
		} else {
			a.head = b
		}
		a.putBlock(l)
	}
	if r := b.next; r != nil && r.free {
		a.mustRemove(r)
		b.size += r.size
		b.next = r.next
		if r.next != nil {
			r.next.prev = b
		} else {
			a.tail = b
		}
		a.putBlock(r)
	}
	b.free = true
	a.tree.insert(b.size, b.off, b)
}

// grow extends the buffer by extra bytes. The new tail merges with a
// trailing free region if one ends at the old capacity, so a grown buffer
// is indistinguishable from one created at the larger size with the same
// entries. Existing blocks keep their offsets — growth never invalidates.
func (a *allocator) grow(extra int) {
	if extra <= 0 {
		return
	}
	a.capacity += extra
	if t := a.tail; t != nil && t.free {
		a.mustRemove(t)
		t.size += extra
		a.tree.insert(t.size, t.off, t)
		return
	}
	b := a.newBlock()
	b.off, b.size, b.free = a.capacity-extra, extra, true
	b.prev = a.tail
	if a.tail != nil {
		a.tail.next = b
	} else {
		a.head = b
	}
	a.tail = b
	a.tree.insert(b.size, b.off, b)
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

// adjacentFree returns how many free bytes border the allocated block on
// either side — the merge potential that feeds the positional component of
// the eviction score. Two pointer hops, no map lookups.
func (a *allocator) adjacentFree(b *block) int {
	adj := 0
	if l := b.prev; l != nil && l.free {
		adj += l.size
	}
	if r := b.next; r != nil && r.free {
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

// check verifies allocator invariants (tests only): the block list tiles
// [0, capacity) exactly, free blocks are fully coalesced and indexed by the
// tree, and used/free byte accounting matches.
func (a *allocator) check() error {
	if n := a.tree.checkBalance(); n < 0 {
		return fmt.Errorf("clampi: AVL invariants violated")
	}
	treeRegions := map[[2]int]bool{}
	treeTotal := 0
	a.tree.walk(func(size, off int) {
		treeRegions[[2]int{off, size}] = true
		treeTotal += size
	})
	if treeTotal != a.freeBytes() {
		return fmt.Errorf("clampi: free bytes %d != tracked %d", treeTotal, a.freeBytes())
	}
	pos, usedSum, freeCount := 0, 0, 0
	var prev *block
	for b := a.head; b != nil; b = b.next {
		if b.off != pos {
			return fmt.Errorf("clampi: block list gap: block at %d, expected %d", b.off, pos)
		}
		if b.size <= 0 {
			return fmt.Errorf("clampi: non-positive block size %d at %d", b.size, b.off)
		}
		if b.prev != prev {
			return fmt.Errorf("clampi: broken prev link at offset %d", b.off)
		}
		if b.free {
			freeCount++
			if prev != nil && prev.free {
				return fmt.Errorf("clampi: uncoalesced adjacent free regions at %d", b.off)
			}
			if !treeRegions[[2]int{b.off, b.size}] {
				return fmt.Errorf("clampi: free block [%d,+%d) missing from tree", b.off, b.size)
			}
		} else {
			usedSum += b.size
		}
		pos += b.size
		prev = b
	}
	if a.capacity > 0 && pos != a.capacity {
		return fmt.Errorf("clampi: block list covers %d bytes of %d", pos, a.capacity)
	}
	if prev != a.tail {
		return fmt.Errorf("clampi: tail link out of sync")
	}
	if usedSum != a.used {
		return fmt.Errorf("clampi: allocated blocks hold %d bytes but used=%d", usedSum, a.used)
	}
	if freeCount != len(treeRegions) || freeCount != a.tree.len() {
		return fmt.Errorf("clampi: tree holds %d regions, list holds %d", a.tree.len(), freeCount)
	}
	return nil
}
