package clampi

import (
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

// TestAvailableWithoutFaults: with no schedule the cache is always
// available and the probe records nothing.
func TestAvailableWithoutFaults(t *testing.T) {
	_, c := faultSetup(t, nil)
	for i := 0; i < 100; i++ {
		if !c.Available() {
			t.Fatal("fault-free cache reported unavailable")
		}
	}
	if s := c.Stats(); s.DegradedOps != 0 {
		t.Fatalf("fault-free cache recorded degraded ops: %+v", s)
	}
}

// TestDegradedModeFlushes: an injected cache fault makes Available report
// false, counts a degraded op, and flushes the entries — the caller falls
// back to direct RMA and later repopulates from scratch.
func TestDegradedModeFlushes(t *testing.T) {
	_, c := faultSetup(t, &fault.Spec{Seed: 3, CacheFailPct: 0.2})
	degraded := 0
	for i := 0; i < 200; i++ {
		if c.Available() {
			// Populate so the next fault has something to flush.
			c.Get(1, (i%8)*64, 64).Wait()
			continue
		}
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
