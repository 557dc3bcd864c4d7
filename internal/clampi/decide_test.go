package clampi

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/rma"
)

// TestCacheDecisionsIgnoreClock holds the rule DESIGN.md §6 keeps for
// caches: a cache's transitions follow from its own operation order, never
// from the rank's clock, so a run of accesses may be decided ahead of their
// charges. One seeded stream — repeats, degree scores — runs through the
// charging request API on a rank whose clock has advanced, and through the
// decision pass (a window's keys derived and preloaded together, then
// Decide per access) on a fresh rank, which it must leave at time zero.
// Verdicts, statistics and evictions must be the same.
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

	r, _, charged, chargedEv := setup()
	r.Compute(1 << 20)
	want := make([]Verdict, len(stream))
	for i, a := range stream {
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
			got[lo+j] = decided.Decide(keys[j], a.score, false)
		}
	}

	var seen [Miss + 1]int
	for i := range want {
		seen[want[i]]++
		if got[i] != want[i] {
			t.Fatalf("access %d %+v: decided %v, charged %v", i, stream[i], got[i], want[i])
		}
	}
	if seen[Hit] == 0 || seen[Miss] == 0 || len(*chargedEv) == 0 {
		t.Fatalf("verdicts %v, %d evictions: the stream must hit, miss and evict", seen, len(*chargedEv))
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
