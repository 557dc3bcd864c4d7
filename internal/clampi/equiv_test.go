package clampi

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// refAllocator is the brute-force reference model for the block allocator:
// a linear list of free regions plus boundary maps (the seed's scheme).
// Best-fit scans every region; free coalesces through the maps. Slow and
// obviously correct.
type refAllocator struct {
	capacity int
	used     int
	free     map[int]int // start -> size
	byEnd    map[int]int // end -> start
}

func newRefAllocator(capacity int) *refAllocator {
	a := &refAllocator{capacity: capacity, free: map[int]int{}, byEnd: map[int]int{}}
	if capacity > 0 {
		a.free[0] = capacity
		a.byEnd[capacity] = 0
	}
	return a
}

func (a *refAllocator) alloc(size int) (int, bool) {
	if size <= 0 {
		return 0, false
	}
	bestOff, bestSize, ok := 0, 0, false
	for off, sz := range a.free {
		if sz < size {
			continue
		}
		if !ok || sz < bestSize || (sz == bestSize && off < bestOff) {
			bestOff, bestSize, ok = off, sz, true
		}
	}
	if !ok {
		return 0, false
	}
	delete(a.free, bestOff)
	delete(a.byEnd, bestOff+bestSize)
	if bestSize > size {
		a.free[bestOff+size] = bestSize - size
		a.byEnd[bestOff+bestSize] = bestOff + size
	}
	a.used += size
	return bestOff, true
}

func (a *refAllocator) freeRegion(off, size int) {
	start, total := off, size
	if lstart, ok := a.byEnd[off]; ok {
		lsize := a.free[lstart]
		delete(a.free, lstart)
		delete(a.byEnd, off)
		start, total = lstart, total+lsize
	}
	if rsize, ok := a.free[off+size]; ok {
		delete(a.free, off+size)
		delete(a.byEnd, off+size+rsize)
		total += rsize
	}
	a.free[start] = total
	a.byEnd[start+total] = start
	a.used -= size
}

func (a *refAllocator) freeBytes() int { return a.capacity - a.used }

func (a *refAllocator) largestFree() int {
	max := 0
	for _, sz := range a.free {
		if sz > max {
			max = sz
		}
	}
	return max
}

func (a *refAllocator) fragmentation() float64 {
	fb := a.freeBytes()
	if fb == 0 {
		return 0
	}
	return 1 - float64(a.largestFree())/float64(fb)
}

func (a *refAllocator) regions() [][2]int {
	var rs [][2]int
	for off, sz := range a.free {
		rs = append(rs, [2]int{off, sz})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	return rs
}

// TestAllocatorEquivalence drives the record-slab allocator and the
// reference model through ~10^5 random alloc/free (evict) sequences and
// asserts identical best-fit choices, coalescing results and fragmentation
// ratios at every step.
func TestAllocatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 202))
	const capacity = 1 << 15
	a := newAllocator(capacity)
	ref := newRefAllocator(capacity)
	type live struct {
		blk  uint32
		off  int
		size int
	}
	var blocks []live
	for step := 0; step < 100_000; step++ {
		if rng.Float64() < 0.55 || len(blocks) == 0 {
			size := 1 + rng.IntN(700)
			blk, ok := a.alloc(size)
			refOff, refOK := ref.alloc(size)
			if ok != refOK {
				t.Fatalf("step %d: alloc(%d) ok=%v, reference %v", step, size, ok, refOK)
			}
			if ok {
				if off := a.recs[blk].off; off != refOff {
					t.Fatalf("step %d: best-fit chose offset %d, reference %d", step, off, refOff)
				}
				blocks = append(blocks, live{blk, refOff, size})
			}
		} else {
			j := rng.IntN(len(blocks))
			b := blocks[j]
			a.free(b.blk)
			ref.freeRegion(b.off, b.size)
			blocks[j] = blocks[len(blocks)-1]
			blocks = blocks[:len(blocks)-1]
		}
		if a.used != ref.used || a.freeBytes() != ref.freeBytes() {
			t.Fatalf("step %d: used/free = %d/%d, reference %d/%d",
				step, a.used, a.freeBytes(), ref.used, ref.freeBytes())
		}
		if a.largestFree() != ref.largestFree() {
			t.Fatalf("step %d: largestFree %d, reference %d (coalescing diverged)",
				step, a.largestFree(), ref.largestFree())
		}
		if af, rf := a.fragmentation(), ref.fragmentation(); af != rf {
			t.Fatalf("step %d: fragmentation %v, reference %v", step, af, rf)
		}
		if step%5000 == 0 {
			// Full structural comparison: identical free-region sets.
			want := ref.regions()
			var got [][2]int
			for id := a.head; id != 0; id = a.recs[id].next {
				if b := a.recs[id]; b.slot == freeSlot {
					got = append(got, [2]int{b.off, b.size})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: %d free regions, reference %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: region %d = %v, reference %v", step, i, got[i], want[i])
				}
			}
			if err := a.check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

// TestTableEquivalence drives the lane table and a map-based reference
// (the seed's semantics: FNV bucket = hash % buckets, assoc ways, first
// free way on insert) through random insert/lookup/remove traffic.
func TestTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 77))
	const buckets, assoc = 61, 3 // deliberately non-power-of-two
	coder := newKeyCoder(8, 1<<12)
	tab := newTable(buckets, assoc)
	refSlots := make([]uint64, buckets*assoc) // 0 = empty
	metas := make([]uint32, buckets*assoc)    // meta word index insertAt returned
	wantMeta := func(slot int) uint32 { return uint32(slot/assoc*2*assoc + assoc + slot%assoc) }
	refFind := func(k, h uint64) int {
		b := int(h % uint64(buckets))
		for i := 0; i < assoc; i++ {
			if refSlots[b*assoc+i] == k {
				return b*assoc + i
			}
		}
		return -1
	}
	refFree := func(h uint64) int {
		b := int(h % uint64(buckets))
		for i := 0; i < assoc; i++ {
			if refSlots[b*assoc+i] == 0 {
				return b*assoc + i
			}
		}
		return -1
	}
	var tick uint64
	for step := 0; step < 100_000; step++ {
		target := rng.IntN(8)
		size := 1 + rng.IntN(64)
		offset := rng.IntN(1<<12 - size)
		k := coder.pack(target, offset, size)
		h := coder.hash(target, offset, size)
		key := Key{k, tab.laneOf(h)}
		if got, want := tab.lookup(key), refFind(k, h); got != want {
			t.Fatalf("step %d: lookup = %d, reference %d", step, got, want)
		}
		free := -1
		if way := tab.freeWay(key); way >= 0 {
			free = int(key.lane/2) + way
		}
		if want := refFree(h); free != want {
			t.Fatalf("step %d: free slot = %d, reference %d", step, free, want)
		}
		switch slot := tab.lookup(key); {
		case slot >= 0 && rng.Float64() < 0.4:
			if metas[slot] != wantMeta(slot) {
				t.Fatalf("step %d: slot %d has meta word %d, want %d", step, slot, metas[slot], wantMeta(slot))
			}
			tab.remove(uint32(slot), metas[slot])
			refSlots[slot] = 0
		case slot < 0:
			if free >= 0 {
				tick++
				s, mi := tab.insertAt(key, free-int(key.lane/2), uint32(free+1), tick)
				if int(s) != free {
					t.Fatalf("step %d: insertAt filled slot %d, want %d", step, s, free)
				}
				metas[free] = mi
				refSlots[free] = k
			}
		}
	}
	n := 0
	for _, k := range refSlots {
		if k != 0 {
			n++
		}
	}
	if n != tab.n {
		t.Fatalf("final population %d, reference %d", tab.n, n)
	}
}
