package clampi

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refFNV is the seed's byte-loop FNV-1a over the three key fields as 8-byte
// little-endian words — the reference the fast keyCoder hash must match bit
// for bit (bucket selection is pinned by the golden tests).
func refFNV(target, offset, size int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(target))
	mix(uint64(offset))
	mix(uint64(size))
	return h
}

// TestKeyCoderHashMatchesFNVReference pins the determinism contract: for
// every coordinate within the coder's bounds, the collapsed hash equals the
// seed's byte-loop FNV-1a exactly.
func TestKeyCoderHashMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, dims := range [][2]int{{2, 1 << 16}, {7, 3000}, {1, 1}, {4096, 1 << 25}, {3, 1 << 9}} {
		ranks, maxRegion := dims[0], dims[1]
		c := newKeyCoder(ranks, maxRegion)
		for i := 0; i < 2000; i++ {
			target := rng.IntN(ranks)
			size := 1 + rng.IntN(maxRegion)
			offset := rng.IntN(maxRegion - size + 1)
			if got, want := c.hash(target, offset, size), refFNV(target, offset, size); got != want {
				t.Fatalf("coder(%d,%d): hash(%d,%d,%d) = %#x, want %#x",
					ranks, maxRegion, target, offset, size, got, want)
			}
		}
	}
}

func TestKeyCoderPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	c := newKeyCoder(48, 1<<20)
	seen := map[uint64][3]int{}
	for i := 0; i < 5000; i++ {
		target := rng.IntN(48)
		size := rng.IntN(1 << 20)
		offset := rng.IntN(1<<20 - size + 1)
		k := c.pack(target, offset, size)
		gt, go_, gs := c.unpack(k)
		if gt != target || go_ != offset || gs != size {
			t.Fatalf("unpack(pack(%d,%d,%d)) = (%d,%d,%d)", target, offset, size, gt, go_, gs)
		}
		if prev, dup := seen[k]; dup && prev != [3]int{target, offset, size} {
			t.Fatalf("pack collision: %v and (%d,%d,%d) -> %#x", prev, target, offset, size, k)
		}
		seen[k] = [3]int{target, offset, size}
	}
}

func TestKeyCoderRejectsUnpackableGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized geometry did not panic")
		}
	}()
	newKeyCoder(1<<20, 1<<30) // 20 + 2*31 bits > 64
}

// TestDivMagicExact pins the divisionless bucket mapping: for every
// divisor shape the cache can see (tiny, power-of-two, odd, prime-ish,
// maximal) and adversarial dividends, mod must equal % exactly.
func TestDivMagicExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 37))
	divisors := []uint64{1, 2, 3, 4, 5, 7, 64, 1000, 1024, 16384, 16383, 65537, 1 << 22, 1<<22 - 1, 3_456_789}
	for d := uint64(1); d <= 512; d++ {
		divisors = append(divisors, d)
	}
	for _, d := range divisors {
		m := newDivMagic(d)
		check := func(n uint64) {
			if got, want := m.mod(n), n%d; got != want {
				t.Fatalf("mod(%d) with d=%d = %d, want %d", n, d, got, want)
			}
		}
		check(0)
		check(d - 1)
		check(d)
		check(d + 1)
		check(^uint64(0))
		check(^uint64(0) - 1)
		for i := 0; i < 2000; i++ {
			check(rng.Uint64())
		}
	}
}

func TestKeyHashSpreads(t *testing.T) {
	// Distinct keys should hash to distinct values overwhelmingly often.
	c := newKeyCoder(4, 1<<16)
	seen := map[uint64]bool{}
	collisions := 0
	for target := 0; target < 4; target++ {
		for off := 0; off < 256; off++ {
			h := c.hash(target, off*16, 16)
			if seen[h] {
				collisions++
			}
			seen[h] = true
		}
	}
	if collisions > 0 {
		t.Errorf("%d hash collisions over 1024 structured keys", collisions)
	}
}

func TestTableLookupInsertRemove(t *testing.T) {
	c := newKeyCoder(4, 1<<12)
	tab := newTable(8, 2)
	k, h := c.pack(1, 32, 8), c.hash(1, 32, 8)
	if tab.lookup(k, h) >= 0 {
		t.Fatal("lookup found entry in empty table")
	}
	slot := tab.freeSlot(h)
	if slot < 0 {
		t.Fatal("no free slot in empty table")
	}
	const id = 5
	mi := tab.insertAt(slot, id, k, 7)
	got := tab.lookup(k, h)
	if got != slot || tab.ents[got] != id || tab.lane[int(mi)-tab.assoc] != k {
		t.Fatal("lookup missed inserted entry")
	}
	if tab.tick(mi) != 7 || tab.stamp(mi) != 0 {
		t.Errorf("fresh slot meta = (tick %d, stamp %d), want (7, 0)", tab.tick(mi), tab.stamp(mi))
	}
	if hit := tab.lookupTouch(k, h, 9); hit != got {
		t.Fatalf("lookupTouch = %d, want %d", hit, got)
	}
	if tab.tick(mi) != 9 || tab.stamp(mi) != 1 {
		t.Errorf("touched slot meta = (tick %d, stamp %d), want (9, 1)", tab.tick(mi), tab.stamp(mi))
	}
	tab.bumpStamp(mi)
	if tab.tick(mi) != 9 || tab.stamp(mi) != 2 {
		t.Errorf("bumped slot meta = (tick %d, stamp %d), want (9, 2)", tab.tick(mi), tab.stamp(mi))
	}
	if tab.n != 1 {
		t.Errorf("n = %d", tab.n)
	}
	tab.remove(uint32(slot), mi)
	if tab.lookup(k, h) >= 0 || tab.n != 0 || tab.ents[slot] != 0 {
		t.Error("remove did not unlink entry")
	}
}

// idOf returns the record id of a resident region (0 if absent).
func idOf(c *Cache, target, offset, size int) uint32 {
	slot := c.tab.lookup(c.coder.pack(target, offset, size), c.coder.hash(target, offset, size))
	if slot < 0 {
		return 0
	}
	return c.tab.ents[slot]
}

func TestTableBucketFullConflict(t *testing.T) {
	// One bucket, 2-way: the third key conflicts, and the bucket's entry of
	// strictly minimal priority is the victim — unless the newcomer is worth
	// no more than it.
	_, _, c := testSetup(t, 1<<12, Config{Capacity: 1 << 10, Buckets: 1, Assoc: 2})
	for i := 0; i < 2; i++ {
		c.GetScored(1, i*16, 16, float64(10*(i+1))).Wait()
	}
	if c.tab.freeSlot(c.coder.hash(1, 99, 16)) != -1 {
		t.Error("full bucket reported a free slot")
	}
	c.GetScored(1, 64, 16, 10).Wait()
	if c.Contains(1, 64, 16) || c.Stats().RejectedInserts != 1 {
		t.Error("a newcomer no better than the bucket's minimum was cached")
	}
	c.GetScored(1, 96, 16, 15).Wait()
	if c.Contains(1, 0, 16) || !c.Contains(1, 16, 16) || !c.Contains(1, 96, 16) || c.Stats().ConflictEvictions != 1 {
		t.Errorf("conflict eviction did not take the score-10 entry: %+v", c.Stats())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTableClearForReusesSlots(t *testing.T) {
	tab := newTable(8, 2)
	tab.insertAt(0, 1, 1, 1)
	before := &tab.ents[0]
	tab.clearFor(8, 2)
	if tab.n != 0 || tab.ents[0] != 0 || tab.lane[0] != 0 {
		t.Error("clearFor left entries")
	}
	if &tab.ents[0] != before {
		t.Error("clearFor reallocated the slot array for unchanged geometry")
	}
	tab.clearFor(16, 2)
	if len(tab.ents) != 32 || len(tab.lane) != 64 {
		t.Errorf("clearFor(16,2) slots = %d/%d, want 64/32", len(tab.lane), len(tab.ents))
	}
	tab.clearFor(4, 2) // a quarter: kept
	if cap(tab.lane) != 64 || len(tab.lane) != 16 || len(tab.ents) != 8 {
		t.Errorf("clearFor(4,2) lane len %d cap %d, want 16 of 64", len(tab.lane), cap(tab.lane))
	}
	tab.clearFor(3, 2) // less than a quarter: released
	if cap(tab.lane) != 12 || cap(tab.ents) != 6 {
		t.Errorf("clearFor(3,2) kept %d lane words and %d slots, want 12 and 6", cap(tab.lane), cap(tab.ents))
	}
}

// refHeap is container/heap over the same items — the seed's victim heap —
// with the position index kept by Swap.
type refHeap struct {
	h   []heapItem
	pos map[uint32]int
}

func (r *refHeap) Len() int           { return len(r.h) }
func (r *refHeap) Less(i, j int) bool { return r.h[i].prio < r.h[j].prio }
func (r *refHeap) Swap(i, j int) {
	r.h[i], r.h[j] = r.h[j], r.h[i]
	r.pos[r.h[i].id], r.pos[r.h[j].id] = i, j
}
func (r *refHeap) Push(x any) {
	r.pos[x.(heapItem).id] = len(r.h)
	r.h = append(r.h, x.(heapItem))
}
func (r *refHeap) Pop() any {
	it := r.h[len(r.h)-1]
	r.h = r.h[:len(r.h)-1]
	delete(r.pos, it.id)
	return it
}

// TestVictimHeapMatchesContainerHeap is the determinism contract's proof:
// under random pushes, pops, re-keys and burials with priorities drawn from
// a handful of values (ties everywhere), the hole sifts leave the array
// exactly as container/heap's swaps do, after every operation.
func TestVictimHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12))
	var v victimHeap
	ref := &refHeap{pos: map[uint32]int{}}
	var live []uint32
	next := uint32(1)
	for step := 0; step < 50_000; step++ {
		prio, stamp := float64(rng.IntN(6)), uint32(rng.IntN(4))
		switch op := rng.IntN(10); {
		case op < 4 || len(v.h) == 0:
			v.push(next, prio, stamp)
			heap.Push(ref, heapItem{prio, stamp, next})
			live = append(live, next)
			next++
		case op < 7:
			got, want := v.pop(), heap.Pop(ref).(heapItem)
			if got != want {
				t.Fatalf("step %d: pop = %+v, container/heap %+v", step, got, want)
			}
			if i := slices.Index(live, got.id); i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		case len(live) > 0 && op < 9:
			id := live[rng.IntN(len(live))]
			v.update(id, prio, stamp)
			i := ref.pos[id]
			ref.h[i].prio, ref.h[i].stamp = prio, stamp
			heap.Fix(ref, i)
		case len(live) > 0:
			j := rng.IntN(len(live))
			id := live[j]
			v.bury(id)
			ref.h[ref.pos[id]].id = 0
			delete(ref.pos, id)
			live = slices.Delete(live, j, j+1)
		}
		if !slices.Equal(v.h, ref.h) {
			t.Fatalf("step %d: heap arrays diverged", step)
		}
		for _, id := range live {
			if int(v.pos[id]) != ref.pos[id] {
				t.Fatalf("step %d: pos[%d] = %d, container/heap has it at %d", step, id, v.pos[id], ref.pos[id])
			}
		}
	}
}

// scoredCache caches n scored 64-byte regions, region i under score i+1,
// and returns their record ids.
func scoredCache(t *testing.T, n int) (*Cache, []uint32) {
	_, _, c := testSetup(t, 1<<14, Config{Capacity: 1 << 13})
	ids := make([]uint32, n)
	for i := range ids {
		c.GetScored(1, 64*i, 64, float64(i+1)).Wait()
		ids[i] = idOf(c, 1, 64*i, 64)
	}
	return c, ids
}

// popVictim is the capacity-eviction pop without the eviction.
func popVictim(c *Cache) uint32 {
	if !c.settleVictims() {
		return 0
	}
	return c.victims.pop().id
}

func TestVictimHeapOrdersByPriority(t *testing.T) {
	c, ids := scoredCache(t, 3)
	if got := popVictim(c); got != ids[0] {
		t.Errorf("popped record %d, want the score-1 entry %d", got, ids[0])
	}
	if !c.settleVictims() || c.victims.h[0].prio != 2 {
		t.Errorf("minimum after the pop = %+v, want priority 2", c.victims.h)
	}
}

func TestVictimHeapSkipsDeadAndStale(t *testing.T) {
	c, ids := scoredCache(t, 3)
	dead, stale, live := ids[0], ids[1], ids[2]
	c.evict(dead, true) // conflict eviction: a tombstone stays behind
	e := &c.alloc.recs[stale]
	e.score = 99 // priority drift: must be re-ranked, not returned at 2
	c.tab.bumpStamp(e.meta)
	if got := popVictim(c); got != live {
		t.Errorf("popped record %d, want the live entry %d (score 3)", got, live)
	}
	if got := popVictim(c); got != stale {
		t.Error("re-ranked stale entry lost")
	}
	if popVictim(c) != 0 {
		t.Error("dead entry resurrected")
	}
}

func TestVictimHeapEmptyBehaviour(t *testing.T) {
	c, _ := scoredCache(t, 0)
	if popVictim(c) != 0 {
		t.Error("a victim in an empty cache")
	}
	c, _ = scoredCache(t, 1)
	c.Flush()
	if c.victims.len() != 0 || popVictim(c) != 0 {
		t.Error("Flush did not clear the heap")
	}
}

// TestVictimHeapUpdateKeepsOneItemPerEntry pins the in-place re-key
// contract: re-scoring an entry moves its one item instead of stranding a
// duplicate snapshot, and pos tracks positions through sifts.
func TestVictimHeapUpdateKeepsOneItemPerEntry(t *testing.T) {
	c, ids := scoredCache(t, 16)
	for round := 0; round < 100; round++ {
		c.SetScore(1, 64*(round%len(ids)), 64, float64((round*37)%100))
		if c.victims.len() != len(ids) {
			t.Fatalf("round %d: heap len %d, want %d", round, c.victims.len(), len(ids))
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Popping everything yields ascending priorities.
	last := math.Inf(-1)
	for id := popVictim(c); id != 0; id = popVictim(c) {
		if s := c.alloc.recs[id].score; s < last {
			t.Fatalf("pop order not ascending: %v after %v", s, last)
		} else {
			last = s
		}
	}
}
