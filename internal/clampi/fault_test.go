package clampi

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/rma"
)

// faultSetup is testSetup with a fault schedule installed on the comm
// before the rank handle (and thus its per-rank schedule) is created.
func faultSetup(t testing.TB, spec *fault.Spec) (*rma.Rank, *Cache) {
	t.Helper()
	c := rma.NewComm(2, rma.DefaultCostModel())
	c.SetFaults(spec)
	region := make([]byte, 1024)
	for i := range region {
		region[i] = byte(i)
	}
	w := c.CreateReadOnlyWindow("data", [][]byte{nil, region})
	r := c.Rank(0)
	r.LockAll(w)
	return r, New(r, w, Config{Capacity: 512})
}

// TestDegradedModeFlushes: an injected cache fault (the rank's CacheFault
// draw) degrades the cache, which counts a degraded op and flushes the
// entries — the caller falls back to direct RMA and later repopulates from
// scratch.
func TestDegradedModeFlushes(t *testing.T) {
	r, c := faultSetup(t, &fault.Spec{Seed: 3, CacheFailPct: 0.2})
	degraded := 0
	for i := 0; i < 200; i++ {
		if !r.CacheFault() {
			// Populate so the next fault has something to flush.
			c.Get(1, (i%8)*64, 64).Wait()
			continue
		}
		c.Degrade()
		degraded++
		if got := c.Stats().EntriesCached; got != 0 {
			t.Fatalf("degraded cache kept %d entries after flush", got)
		}
	}
	if degraded == 0 {
		t.Fatal("20% cache fault rate never degraded in 200 ops")
	}
	s := c.Stats()
	if int(s.DegradedOps) != degraded {
		t.Fatalf("DegradedOps = %d, observed %d degraded probes", s.DegradedOps, degraded)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDecisionsIgnoreClock holds the rule DESIGN.md §6 keeps for
// caches: a cache's transitions follow from its own operation order and its
// fault-draw index, never from the rank's clock, so a run of accesses may be
// decided ahead of their charges. One seeded stream — repeats, degree
// scores, a CacheFailPct schedule — runs through the charging request API on
// a rank whose clock has advanced, and through the decision pass (a window's
// keys derived and preloaded together, then the rank's CacheFault draw and
// Decide or Degrade per access) on a fresh rank, which it must leave at time
// zero. Verdicts, statistics and evictions must be the same.
func TestCacheDecisionsIgnoreClock(t *testing.T) {
	type access struct {
		off, size int
		score     float64
	}
	rng := rand.New(rand.NewPCG(41, 43))
	stream := make([]access, 6000)
	for i := range stream {
		if i > 0 && rng.IntN(3) == 0 {
			stream[i] = stream[rng.IntN(i)]
			continue
		}
		size := 16 + 16*rng.IntN(24)
		stream[i] = access{16 * rng.IntN((digestRegion-size)/16), size, float64(1 + rng.IntN(12))}
	}
	setup := func() (*rma.Rank, *rma.Window, *Cache, *[][3]uint64) {
		comm := rma.NewComm(2, rma.DefaultCostModel())
		comm.SetFaults(&fault.Spec{Seed: 17, CacheFailPct: 0.01})
		w := comm.CreateReadOnlyWindow("data", [][]byte{nil, make([]byte, digestRegion)})
		r := comm.Rank(0)
		r.LockAll(w)
		c := New(r, w, Config{Capacity: 1 << 13, Buckets: 96})
		var evicted [][3]uint64
		c.onEvict = func(conflict bool, key, tick uint64) {
			kind := uint64(0)
			if conflict {
				kind = 1
			}
			evicted = append(evicted, [3]uint64{kind, key, tick})
		}
		return r, w, c, &evicted
	}

	r, w, charged, chargedEv := setup()
	r.Compute(1 << 20)
	want := make([]Verdict, len(stream))
	var direct rma.Request
	for i, a := range stream {
		if r.CacheFault() {
			charged.Degrade()
			want[i] = Degraded
			r.GetInto(&direct, w, 1, a.off, a.size)
			direct.Wait()
			continue
		}
		hits := charged.Stats().Hits
		q := charged.GetScored(1, a.off, a.size, a.score)
		if want[i] = Miss; charged.Stats().Hits > hits {
			want[i] = Hit
		}
		q.Wait()
		q.Release()
		r.Compute(1 + i%7)
	}

	fresh, _, decided, decidedEv := setup()
	got := make([]Verdict, len(stream))
	const window = 16
	for lo := 0; lo < len(stream); lo += window {
		batch := stream[lo:min(lo+window, len(stream))]
		var keys [window]Key
		for j, a := range batch {
			keys[j] = decided.KeyOf(1, a.off, a.size)
		}
		decided.Preload(keys[:len(batch)])
		for j, a := range batch {
			if got[lo+j] = Degraded; fresh.CacheFault() {
				decided.Degrade()
			} else {
				got[lo+j] = decided.Decide(keys[j], a.score, false)
			}
		}
	}

	var seen [Degraded + 1]int
	for i := range want {
		seen[want[i]]++
		if got[i] != want[i] {
			t.Fatalf("access %d %+v: decided %v, charged %v", i, stream[i], got[i], want[i])
		}
	}
	if seen[Hit] == 0 || seen[Miss] == 0 || seen[Degraded] == 0 || len(*chargedEv) == 0 {
		t.Fatalf("verdicts %v, %d evictions: the stream must hit, miss, degrade and evict", seen, len(*chargedEv))
	}
	if g, c := decided.Stats(), charged.Stats(); g != c {
		t.Errorf("statistics\n decided %+v\n charged %+v", g, c)
	}
	if !slices.Equal(*decidedEv, *chargedEv) {
		t.Errorf("evictions differ: %d decided, %d charged", len(*decidedEv), len(*chargedEv))
	}
	if fresh.Now() != 0 || r.Now() == 0 {
		t.Errorf("clocks: the decisions moved theirs to %v, the charges theirs to %v", fresh.Now(), r.Now())
	}
	if err := decided.checkInvariants(); err != nil {
		t.Error(err)
	}
}
