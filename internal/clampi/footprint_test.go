package clampi

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
	"repro/internal/rma"
)

// TestCacheFootprint bounds the host memory of an instance at the
// repository benchmark's two geometries (bench/workloads.go, cached-*):
// C_offsets — 256 KiB over 16,384 buckets, 16-byte (start,end) pairs — and
// C_adj — 4 MiB over 32,768 buckets, the uniform graph's adjacency lists
// (degree around 32, four bytes a neighbour). Each is filled to capacity and
// churned at random; afterwards every backing array together must fit in
// the table's lanes (64 B a bucket at the default associativity), 4 B per
// slot, 96 B per entry of the peak live population — record, heap item,
// position, free regions, tombstones and all growth slack — and the
// compulsory-miss set. The pointer-based structures before the record slab
// cost ~150 B per entry before their slabs' doubling slack and 8 B per slot.
func TestCacheFootprint(t *testing.T) {
	const vertices = 1 << 16
	rng := rand.New(rand.NewPCG(18, 1))
	pairs := make([]uint64, 2*vertices)
	for v, end := 0, uint64(0); v < vertices; v++ {
		pairs[2*v] = end
		end += uint64(16 + rng.IntN(33))
		pairs[2*v+1] = end
	}
	comm := rma.NewComm(2, rma.DefaultCostModel())
	wOff := comm.CreateUint64Window("off", [][]uint64{nil, pairs})
	wAdj := comm.CreateVertexWindow("adj", [][]graph.V{nil, make([]graph.V, pairs[len(pairs)-1])})
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
			func(c *Cache, v int) *Request { return c.Get(1, 4*int(pairs[2*v]), 4*int(pairs[2*v+1]-pairs[2*v])) }},
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
		seen := 8 * len(c.seen.tab)
		limit := 64*c.cfg.Buckets + 4*slots + 96*peak + seen
		got := c.MemBytes()
		t.Logf("%s: %d B for %d peak entries: %.1f B per entry past the table (%d B) and seen-set (%d B); limit %d B",
			tc.name, got, peak, float64(got-seen-64*c.cfg.Buckets-4*slots)/float64(peak), 64*c.cfg.Buckets+4*slots, seen, limit)
		if got > limit {
			t.Errorf("%s: MemBytes %d over the limit %d", tc.name, got, limit)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
