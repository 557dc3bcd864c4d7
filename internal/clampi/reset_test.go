package clampi

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/rma"
)

// churn drives a seeded mix of scored and unscored gets over rank 1's
// region, each waited for before the next.
func churn(c *Cache, seed uint64, ops, region int) {
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
}

// TestResetMatchesNew: after a differently configured use, a recycled cache
// is indistinguishable from a fresh one — same statistics, same residency,
// same charges to the float bit — under the default and the scored policy.
func TestResetMatchesNew(t *testing.T) {
	const region = 1 << 16
	cfgs := []Config{
		{Capacity: 1 << 12, Buckets: 64},
		{Capacity: 1 << 13, Buckets: 512},
	}
	_, _, used := testSetup(t, region, Config{Capacity: 1 << 14, Buckets: 16})
	churn(used, 99, 6000, region)
	for i, cfg := range cfgs {
		rf, _, fresh := testSetup(t, region, cfg)
		rr, wr, _ := testSetup(t, region, cfg)
		used.Reset(rr, wr, cfg)
		churn(fresh, uint64(i), 6000, region)
		churn(used, uint64(i), 6000, region)
		if tf, tr := rf.Now(), rr.Now(); math.Float64bits(tf) != math.Float64bits(tr) {
			t.Errorf("cfg %d: clock fresh %v, recycled %v", i, tf, tr)
		}
		if sf, sr := fresh.Stats(), used.Stats(); sf != sr {
			t.Errorf("cfg %d: stats differ\n fresh    %+v\n recycled %+v", i, sf, sr)
		}
		if rf.Counters() != rr.Counters() {
			t.Errorf("cfg %d: rank counters differ", i)
		}
		for off := 0; off < region/4; off += 8 {
			if resident(fresh, 1, off, 64) != resident(used, 1, off, 64) {
				t.Fatalf("cfg %d: residency of (1,%d,64) differs", i, off)
			}
		}
		if err := used.checkInvariants(); err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
	}
}

// TestResetRefusesAbandonedCache: a cache that is mid-operation was left
// behind by an unwinding rank.
func TestResetRefusesAbandonedCache(t *testing.T) {
	cfg := Config{Capacity: 1 << 10}
	r, w, c := testSetup(t, 1<<12, cfg)
	c.busy = true
	mustPanicClampi(t, "Reset of a busy cache", func() { c.Reset(r, w, cfg) })
}

// TestConstructorsRefuseNonPositiveCapacity: a cache of 0 bytes or fewer is
// no cache, so no constructor builds one, fresh or recycled.
func TestConstructorsRefuseNonPositiveCapacity(t *testing.T) {
	r, w := oneSizeWorld(16)
	c := New(r, w, Config{Capacity: 64})
	m := NewOneSize(w, 3, Config{Capacity: 64})
	for _, capacity := range []int{0, -16} {
		cfg := Config{Capacity: capacity}
		msg := fmt.Sprintf("clampi: capacity %d: a cache needs a positive capacity", capacity)
		mustPanicWith(t, msg, func() { New(r, w, cfg) })
		mustPanicWith(t, msg, func() { c.Reset(r, w, cfg) })
		mustPanicWith(t, msg, func() { NewOneSize(w, 3, cfg) })
		mustPanicWith(t, msg, func() { m.Reset(w, 3, cfg) })
		mustPanicWith(t, msg, func() { new(Resident).Reset(cfg, w, 3) })
	}
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
	churn(fresh, 4, 6000, region)
	churn(used, 4, 6000, region)
	if tf, tr := rf.Now(), rr.Now(); math.Float64bits(tf) != math.Float64bits(tr) {
		t.Errorf("clock fresh %v, recycled %v", tf, tr)
	}
	if sf, sr := fresh.Stats(), used.Stats(); sf != sr {
		t.Errorf("stats differ\n fresh    %+v\n recycled %+v", sf, sr)
	}
	for off := 0; off < region/4; off += 8 {
		if resident(fresh, 1, off, 64) != resident(used, 1, off, 64) {
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
