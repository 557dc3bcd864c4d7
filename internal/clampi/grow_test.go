package clampi

import (
	"bytes"
	"testing"
)

func TestAllocatorGrow(t *testing.T) {
	a := newAllocator(64)
	b1, ok := a.alloc(40)
	if !ok {
		t.Fatal("alloc 40 in 64 failed")
	}
	if _, ok := a.alloc(40); ok {
		t.Fatal("alloc 40 with 24 free should fail")
	}
	a.grow(64)
	if a.capacity != 128 {
		t.Fatalf("capacity = %d, want 128", a.capacity)
	}
	// The 24-byte tail must have merged with the new 64: a 64-byte
	// allocation fits only if the regions coalesced (24+64=88).
	b2, ok := a.alloc(80)
	if !ok {
		t.Fatal("alloc 80 after grow failed: tail did not coalesce")
	}
	if a.recs[b2].off < a.recs[b1].off+40 {
		t.Fatalf("grown allocation at %d overlaps the first at %d", a.recs[b2].off, a.recs[b1].off)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorGrowFullBuffer(t *testing.T) {
	a := newAllocator(32)
	if _, ok := a.alloc(32); !ok {
		t.Fatal("alloc full buffer failed")
	}
	a.grow(16) // no trailing free region to merge with
	if b, ok := a.alloc(16); !ok || a.recs[b].off != 32 {
		t.Fatalf("alloc after grow = (record %d at %d,%v), want offset 32", b, a.recs[b].off, ok)
	}
	a.grow(0) // no-op
	a.grow(-5)
	if a.capacity != 48 {
		t.Fatalf("capacity after no-op grows = %d, want 48", a.capacity)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveBufferGrowth drives a cache far past its initial capacity
// with a reuse-heavy access pattern: the adaptive heuristic must double the
// buffer (without flushing resident entries) until capacity evictions
// subside or MaxCapacity is reached.
func TestAdaptiveBufferGrowth(t *testing.T) {
	const region = 1 << 16
	_, _, c := testSetup(t, region, Config{
		Capacity:    1 << 10,
		MaxCapacity: 1 << 15,
		Buckets:     1 << 12, // ample: isolate the capacity dimension
		Adaptive:    true,
	})
	// Cycle over a working set 8x the initial capacity; every round trips
	// capacity evictions until the buffer has grown to hold it. Growth
	// doubles at most once per 1024-op observation window, so give it
	// enough windows to reach a comfortably oversized buffer.
	for round := 0; round < 80; round++ {
		for off := 0; off < 1<<13; off += 64 {
			c.Get(1, off, 64).Wait()
		}
	}
	s := c.Stats()
	if s.BufferResizes == 0 {
		t.Fatalf("no buffer growth: %+v", s)
	}
	if c.cfg.Capacity > c.cfg.MaxCapacity {
		t.Fatalf("capacity %d exceeded MaxCapacity %d", c.cfg.Capacity, c.cfg.MaxCapacity)
	}
	if s.Flushes != 0 {
		t.Errorf("buffer growth flushed the cache %d times; growth must keep entries", s.Flushes)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// After growth the working set fits: a final sweep must be all hits.
	before := c.Stats().Hits
	for off := 0; off < 1<<13; off += 64 {
		if !c.Get(1, off, 64).Hit() {
			t.Fatalf("offset %d still misses after growth to %d bytes", off, c.cfg.Capacity)
		}
	}
	if c.Stats().Hits != before+(1<<13)/64 {
		t.Error("hit accounting inconsistent after growth")
	}
}

// TestAdaptiveBufferGrowthDisabled: without MaxCapacity the buffer must
// stay at its configured size no matter the pressure.
func TestAdaptiveBufferGrowthDisabled(t *testing.T) {
	_, _, c := testSetup(t, 1<<15, Config{
		Capacity: 1 << 10,
		Buckets:  1 << 12,
		Adaptive: true,
	})
	for round := 0; round < 8; round++ {
		for off := 0; off < 1<<13; off += 64 {
			c.Get(1, off, 64).Wait()
		}
	}
	s := c.Stats()
	if s.BufferResizes != 0 {
		t.Errorf("buffer grew %d times with MaxCapacity unset", s.BufferResizes)
	}
	if c.cfg.Capacity != 1<<10 {
		t.Errorf("capacity changed to %d", c.cfg.Capacity)
	}
}

// TestBufferGrowthKeepsData: entries cached before a growth round must
// return identical bytes afterwards.
func TestBufferGrowthKeepsData(t *testing.T) {
	_, _, c := testSetup(t, 1<<15, Config{
		Capacity:    1 << 9,
		MaxCapacity: 1 << 14,
		Buckets:     1 << 12,
		Adaptive:    true,
	})
	c.Get(1, 128, 64).Wait()
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(128 + i)
	}
	for round := 0; round < 16; round++ {
		// Keep the probe entry hot so eviction never selects it while
		// the sweep below applies capacity pressure.
		probe := c.Get(1, 128, 64)
		for off := 1 << 10; off < 1<<13; off += 64 {
			q := c.Get(1, off, 64)
			probe.Wait() // in issue order with the first sweep get; a no-op after
			q.Wait()
		}
	}
	if c.Stats().BufferResizes == 0 {
		t.Skip("pressure pattern did not trigger growth (heuristic changed?)")
	}
	q := c.Get(1, 128, 64)
	q.Wait()
	if !bytes.Equal(q.Data(), want) {
		t.Error("entry bytes corrupted across buffer growth")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferGrowthChargesOverhead: the realloc copy is not free.
func TestBufferGrowthChargesOverhead(t *testing.T) {
	r, _, c := testSetup(t, 1<<15, Config{
		Capacity:    1 << 9,
		MaxCapacity: 1 << 14,
		Buckets:     1 << 12,
		Adaptive:    true,
	})
	_ = r
	for round := 0; round < 16; round++ {
		for off := 0; off < 1<<13; off += 64 {
			c.Get(1, off, 64).Wait()
		}
	}
	s := c.Stats()
	if s.BufferResizes == 0 {
		t.Skip("no growth triggered")
	}
	if s.OverheadTime <= 0 {
		t.Error("growth charged no overhead time")
	}
}
