package clampi

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/rma"
)

// churn drives a seeded mix of scored and unscored gets over rank 1's
// region, each waited for before the next, and returns the rank's clock.
func churn(c *Cache, seed uint64, ops, region int) float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < ops; i++ {
		size := 8 + 8*rng.IntN(24)
		off := rng.IntN((region-size)/8/4) * 8 // skewed: a quarter of the region
		var q *Request
		if i%3 == 0 {
			q = c.GetScored(1, off, size, float64(size))
		} else {
			q = c.Get(1, off, size)
		}
		q.Wait()
		q.Release()
	}
	return c.Rank().Clock().Now()
}

// TestResetUndoesAdaptiveGrowth: a cache whose adaptive heuristic grew both
// the table and the buffer returns to the configured geometry, empty, with
// no trace of the first use in its statistics.
func TestResetUndoesAdaptiveGrowth(t *testing.T) {
	const region = 1 << 16
	cfg := Config{Capacity: 1 << 10, MaxCapacity: 1 << 15, Buckets: 2, Assoc: 1, Adaptive: true}
	r, w, c := testSetup(t, region, cfg)
	for round := 0; round < 80; round++ {
		for off := 0; off < 1<<13; off += 64 {
			c.Get(1, off, 64).Wait()
		}
	}
	if s := c.Stats(); s.Resizes == 0 || s.BufferResizes == 0 {
		t.Fatalf("setup: want both kinds of growth, got %+v", s)
	}
	if got := c.Reset(r, w, cfg); got != c {
		t.Fatal("Reset must return its receiver")
	}
	if c.cfg.Buckets != 2 || c.cfg.Capacity != 1<<10 {
		t.Errorf("cfg after Reset: buckets %d capacity %d, want 2 and 1024", c.cfg.Buckets, c.cfg.Capacity)
	}
	if c.tab.buckets != 2 || len(c.tab.ents) != 2 || c.alloc.capacity != 1<<10 || c.alloc.largestFree() != 1<<10 {
		t.Errorf("structures after Reset: table %d buckets/%d slots, buffer %d with largest free %d",
			c.tab.buckets, len(c.tab.ents), c.alloc.capacity, c.alloc.largestFree())
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("stats after Reset = %+v, want zero (Reset is not a Flush)", s)
	}
	if c.tick != 0 || c.seen.len() != 0 || c.victims.len() != 0 || c.obsOps != 0 {
		t.Errorf("tick %d, seen %d, heap %d, obsOps %d after Reset; want all zero", c.tick, c.seen.len(), c.victims.len(), c.obsOps)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesNew: after a differently configured use, a recycled cache
// is indistinguishable from a fresh one — same statistics, same residency,
// same charges to the float bit — under the default and the scored policy,
// with and without adaptive growth.
func TestResetMatchesNew(t *testing.T) {
	const region = 1 << 16
	cfgs := []Config{
		{Capacity: 1 << 12, Buckets: 64},
		{Capacity: 1 << 11, Buckets: 4, Assoc: 2, MaxCapacity: 1 << 14, Adaptive: true},
		{Capacity: 1 << 13, Buckets: 512},
	}
	_, _, used := testSetup(t, region, Config{Capacity: 1 << 14, Buckets: 16, Adaptive: true})
	churn(used, 99, 6000, region)
	for i, cfg := range cfgs {
		rf, _, fresh := testSetup(t, region, cfg)
		rr, wr, _ := testSetup(t, region, cfg)
		used.Reset(rr, wr, cfg)
		if used.Rank() != rr {
			t.Fatal("Reset did not rebind the rank")
		}
		tf, tr := churn(fresh, uint64(i), 6000, region), churn(used, uint64(i), 6000, region)
		if math.Float64bits(tf) != math.Float64bits(tr) {
			t.Errorf("cfg %d: clock fresh %v, recycled %v", i, tf, tr)
		}
		if sf, sr := fresh.Stats(), used.Stats(); sf != sr {
			t.Errorf("cfg %d: stats differ\n fresh    %+v\n recycled %+v", i, sf, sr)
		}
		if rf.Counters() != rr.Counters() {
			t.Errorf("cfg %d: rank counters differ", i)
		}
		for off := 0; off < region/4; off += 8 {
			if fresh.Contains(1, off, 64) != used.Contains(1, off, 64) {
				t.Fatalf("cfg %d: residency of (1,%d,64) differs", i, off)
			}
		}
		if err := used.checkInvariants(); err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
	}
}

// TestResetRefusesAbandonedCache: a cache with a miss in flight, under either
// ownership, or one that is mid-operation, was left behind by an unwinding
// rank.
func TestResetRefusesAbandonedCache(t *testing.T) {
	cfg := Config{Capacity: 1 << 10}
	r, w, c := testSetup(t, 1<<12, cfg)
	q := c.Get(1, 0, 64)
	mustPanicClampi(t, "Reset with a pooled miss in flight", func() { c.Reset(r, w, cfg) })
	q.Wait()
	var own Request
	c.GetInto(&own, 1, 64, 64, math.NaN())
	mustPanicClampi(t, "Reset with a caller-owned miss in flight", func() { c.Reset(r, w, cfg) })
	mustPanicClampi(t, "GetInto over a miss in flight", func() { c.GetInto(&own, 1, 128, 64, math.NaN()) })
	own.Wait()
	c.Reset(r, w, cfg)
	if c.inflight != 0 {
		t.Errorf("inflight %d after Reset", c.inflight)
	}
	q.Release() // a request from before the Reset is still the caller's to release
	c.busy = true
	mustPanicClampi(t, "Reset of a busy cache", func() { c.Reset(r, w, cfg) })
}

// TestResetKeepsBackingStorage: the second use of an instance allocates
// nothing a first use already paid for.
func TestResetKeepsBackingStorage(t *testing.T) {
	const region = 1 << 16
	cfg := Config{Capacity: 1 << 12, Buckets: 256}
	r, w, c := testSetup(t, region, cfg)
	churn(c, 7, 4000, region)
	if got := testing.AllocsPerRun(5, func() {
		c.Reset(r, w, cfg)
		churn(c, 7, 4000, region)
	}); got > 2 { // churn's own rand source
		t.Errorf("recycled use allocated %.0f times, want none beyond the test's rng", got)
	}
}

// TestResetReleasesOversizedStorage: an instance that served one query with
// a large table and buffer does not pin that footprint once it is recycled
// under the benchmark's C_offsets geometry — and is still indistinguishable
// from a fresh instance there. A tiny geometry then releases the slab, heap
// and compulsory-miss set as well.
func TestResetReleasesOversizedStorage(t *testing.T) {
	const region = 1 << 16
	setup := func() (*rma.Rank, *rma.Window) {
		comm := rma.NewComm(2, rma.DefaultCostModel())
		w := comm.CreateReadOnlyWindow("ro", [][]byte{nil, make([]byte, region)})
		r := comm.Rank(0)
		r.LockAll(w)
		return r, w
	}
	big := Config{Capacity: 1 << 24, Buckets: 1 << 17}
	bench := Config{Capacity: 1 << 18, Buckets: 1 << 14}
	r, w := setup()
	used := New(r, w, big)
	churn(used, 3, 20000, region)
	held := used.MemBytes()

	rf, wf := setup()
	fresh := New(rf, wf, bench)
	rr, wr := setup()
	used.Reset(rr, wr, bench)
	if got, want := used.MemBytes(), fresh.MemBytes(); got > 2*want {
		t.Errorf("recycled from %d B, the instance still holds %d B; a fresh one holds %d B", held, got, want)
	}
	tf, tr := churn(fresh, 4, 6000, region), churn(used, 4, 6000, region)
	if math.Float64bits(tf) != math.Float64bits(tr) {
		t.Errorf("clock fresh %v, recycled %v", tf, tr)
	}
	if sf, sr := fresh.Stats(), used.Stats(); sf != sr {
		t.Errorf("stats differ\n fresh    %+v\n recycled %+v", sf, sr)
	}
	for off := 0; off < region/4; off += 8 {
		if fresh.Contains(1, off, 64) != used.Contains(1, off, 64) {
			t.Fatalf("residency of (1,%d,64) differs", off)
		}
	}
	if err := used.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	tiny := Config{Capacity: 1 << 10, Buckets: 2, Assoc: 1}
	if got, want := used.Reset(rr, wr, tiny).MemBytes(), New(rf, wf, tiny).MemBytes(); got != want {
		t.Errorf("under a tiny geometry the instance holds %d B, a fresh one %d B", got, want)
	}
}
