package clampi

import (
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/rma"
)

// memBytes is the bytes of the table's backing arrays.
func (t *table) memBytes() int { return 8*cap(t.lane) + 4*cap(t.ents) }

// MemBytes returns the bytes of every backing array the instance holds:
// table lanes and slots, record slab, victim heap and positions, and
// free-region tree nodes. (Pooled requests, a handful of small objects per
// instance, are not arrays and not counted.) It is what an idle instance in
// a pool costs its snapshot.
func (c *Cache) MemBytes() int {
	return c.tab.memBytes() +
		int(unsafe.Sizeof(record{}))*cap(c.alloc.recs) + int(unsafe.Sizeof(avlNode{}))*c.alloc.tree.made +
		int(unsafe.Sizeof(heapItem{}))*cap(c.victims.h) + 4*cap(c.victims.pos)
}

// MemBytes returns the bytes of the model's backing arrays: the table's
// lanes and slots, and 12 bytes a place.
func (m *OneSize) MemBytes() int {
	return m.tab.memBytes() + 12*cap(m.ents)
}

// TestCacheFootprint bounds the host memory of an instance at the
// repository benchmark's two geometries (bench/workloads.go, cached-*):
// C_offsets — 256 KiB over 16,384 buckets, 16-byte (start,end) pairs — and
// C_adj — 4 MiB over 32,768 buckets, the uniform graph's adjacency lists
// (degree around 32, four bytes a neighbour). Each is filled to capacity and
// churned at random; afterwards every backing array together must fit in
// the table's lanes (64 B a bucket at the default associativity), 4 B per
// slot, 96 B per entry of the peak live population — record, heap item,
// position, free regions, tombstones and all growth slack. The pointer-based
// structures before the record slab cost ~150 B per entry before their
// slabs' doubling slack and 8 B per slot.
func TestCacheFootprint(t *testing.T) {
	const vertices = 1 << 16
	rng := rand.New(rand.NewPCG(18, 1))
	offsets := make([]uint64, vertices+1)
	for v := range vertices {
		offsets[v+1] = offsets[v] + uint64(16+rng.IntN(33))
	}
	comm := rma.NewComm(2, rma.DefaultCostModel())
	wOff := comm.CreateOffsetsWindow("off", [][]uint64{nil, offsets})
	wAdj := comm.CreateVertexWindow("adj", [][]graph.V{nil, make([]graph.V, offsets[vertices])})
	r := comm.Rank(0)
	r.LockAll(wOff)
	r.LockAll(wAdj)
	defer r.UnlockAll(wOff)
	defer r.UnlockAll(wAdj)
	for _, tc := range []struct {
		name string
		c    *Cache
		get  func(c *Cache, v int) *Request
	}{
		{"offsets", New(r, wOff, Config{Capacity: 1 << 18, Buckets: 1 << 14}),
			func(c *Cache, v int) *Request { return c.Get(1, 16*v, 16) }},
		{"adjacency", New(r, wAdj, Config{Capacity: 1 << 22, Buckets: 1 << 15}),
			func(c *Cache, v int) *Request { return c.Get(1, 4*int(offsets[v]), 4*int(offsets[v+1]-offsets[v])) }},
	} {
		c, peak := tc.c, 0
		for i := 0; i < 200_000; i++ {
			q := tc.get(c, rng.IntN(vertices))
			q.Wait()
			q.Release()
			peak = max(peak, c.tab.n)
		}
		s := c.Stats()
		if s.CapacityEvictions < int64(peak) {
			t.Fatalf("%s: %d capacity evictions over %d peak entries; the churn never turned the cache over", tc.name, s.CapacityEvictions, peak)
		}
		slots := c.cfg.Buckets * c.cfg.Assoc
		limit := 64*c.cfg.Buckets + 4*slots + 96*peak
		got := c.MemBytes()
		t.Logf("%s: %d B for %d peak entries: %.1f B per entry past the table (%d B); limit %d B",
			tc.name, got, peak, float64(got-64*c.cfg.Buckets-4*slots)/float64(peak), 64*c.cfg.Buckets+4*slots, limit)
		if got > limit {
			t.Errorf("%s: MemBytes %d over the limit %d", tc.name, got, limit)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
