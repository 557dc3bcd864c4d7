package clampi

import (
	"math/rand/v2"
	"testing"
)

func TestAllocatorBasic(t *testing.T) {
	a := newAllocator(100)
	b1, ok := a.alloc(40)
	if !ok || a.recs[b1].off != 0 {
		t.Fatalf("alloc(40) = (record %d at %d,%v), want offset 0", b1, a.recs[b1].off, ok)
	}
	b2, ok := a.alloc(60)
	if !ok || a.recs[b2].off != 40 {
		t.Fatalf("alloc(60) = (record %d at %d,%v), want offset 40", b2, a.recs[b2].off, ok)
	}
	if _, ok := a.alloc(1); ok {
		t.Error("alloc on a full buffer succeeded")
	}
	if a.freeBytes() != 0 {
		t.Errorf("freeBytes = %d, want 0", a.freeBytes())
	}
	a.free(b1)
	if a.freeBytes() != 40 {
		t.Errorf("freeBytes = %d, want 40", a.freeBytes())
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorBestFitReducesWaste(t *testing.T) {
	a := newAllocator(100)
	b1, _ := a.alloc(30) // [0,30)
	b2, _ := a.alloc(20) // [30,50)
	_, _ = a.alloc(50)   // [50,100)
	a.free(b1)
	a.free(b2) // coalesces to [0,50)
	if got := a.largestFree(); got != 50 {
		t.Fatalf("largestFree = %d, want 50 after coalescing", got)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorCoalescingBothSides(t *testing.T) {
	a := newAllocator(90)
	b1, _ := a.alloc(30)
	b2, _ := a.alloc(30)
	b3, _ := a.alloc(30)
	a.free(b1)
	a.free(b3)
	if a.largestFree() != 30 {
		t.Fatalf("largestFree = %d, want 30 (two separate regions)", a.largestFree())
	}
	a.free(b2) // merges left and right into one 90-byte region
	if a.largestFree() != 90 {
		t.Fatalf("largestFree = %d, want 90 after middle free", a.largestFree())
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorExternalFragmentation(t *testing.T) {
	// Fill with 10 x 10B, free every other one: 50 free bytes but no
	// region bigger than 10 — an alloc(20) must fail. This is exactly the
	// external fragmentation §II-F describes.
	a := newAllocator(100)
	blks := make([]uint32, 10)
	for i := range blks {
		b, ok := a.alloc(10)
		if !ok {
			t.Fatalf("alloc #%d failed", i)
		}
		blks[i] = b
	}
	for i := 0; i < 10; i += 2 {
		a.free(blks[i])
	}
	if a.freeBytes() != 50 {
		t.Fatalf("freeBytes = %d, want 50", a.freeBytes())
	}
	if _, ok := a.alloc(20); ok {
		t.Error("alloc(20) succeeded despite external fragmentation")
	}
	if frag := a.fragmentation(); frag < 0.5 {
		t.Errorf("fragmentation = %.2f, want high", frag)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorAdjacentFree(t *testing.T) {
	a := newAllocator(100)
	b1, _ := a.alloc(20) // [0,20)
	b2, _ := a.alloc(20) // [20,40)
	_, _ = a.alloc(60)   // [40,100)
	a.free(b1)
	// b2 has 20 free bytes on its left, none on its right.
	if adj := a.adjacentFree(&a.recs[b2]); adj != 20 {
		t.Errorf("adjacentFree = %d, want 20", adj)
	}
}

func TestAllocatorRejectsNonPositive(t *testing.T) {
	a := newAllocator(10)
	if _, ok := a.alloc(0); ok {
		t.Error("alloc(0) succeeded")
	}
	if _, ok := a.alloc(-5); ok {
		t.Error("alloc(-5) succeeded")
	}
}

func TestAllocatorResetRestoresPristineState(t *testing.T) {
	a := newAllocator(1 << 10)
	var live []uint32
	for i := 0; i < 20; i++ {
		if b, ok := a.alloc(17 + i); ok {
			live = append(live, b)
		}
	}
	for i := 0; i < len(live); i += 2 {
		a.free(live[i])
	}
	a.reset(a.capacity)
	if a.used != 0 || a.freeBytes() != 1<<10 || a.largestFree() != 1<<10 {
		t.Fatalf("reset left used=%d free=%d largest=%d", a.used, a.freeBytes(), a.largestFree())
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	// The pools must make post-reset churn allocation-free.
	if got := testing.AllocsPerRun(100, func() {
		b1, _ := a.alloc(64)
		b2, _ := a.alloc(128)
		a.free(b1)
		b3, _ := a.alloc(32)
		a.free(b2)
		a.free(b3)
	}); got != 0 {
		t.Errorf("steady-state alloc/free allocates %.1f/op, want 0", got)
	}
}

func TestAllocatorChurnInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	a := newAllocator(1 << 16)
	var live []uint32
	for i := 0; i < 20000; i++ {
		if rng.Float64() < 0.55 {
			size := 1 + rng.IntN(512)
			if b, ok := a.alloc(size); ok {
				live = append(live, b)
			}
		} else if len(live) > 0 {
			j := rng.IntN(len(live))
			a.free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%2000 == 0 {
			if err := a.check(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want := 0
			for _, b := range live {
				want += a.recs[b].size
			}
			if a.used != want {
				t.Fatalf("step %d: used = %d, want %d", i, a.used, want)
			}
		}
	}
	// Free everything: buffer must return to one pristine region.
	for _, b := range live {
		a.free(b)
	}
	if a.largestFree() != 1<<16 || a.freeBytes() != 1<<16 {
		t.Errorf("after freeing all: largest %d free %d, want %d", a.largestFree(), a.freeBytes(), 1<<16)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorShrinkInPlace drives random carve/free sequences, checking
// every invariant after every step, and requires that carves which leave a
// best fit above its predecessor — shrunk in place although it is not the
// least region — happened.
func TestAllocatorShrinkInPlace(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		a := newAllocator(1 << 12)
		var live []uint32
		inPlace := 0
		for i := 0; i < 3000; i++ {
			if rng.IntN(100) < 60 {
				size := 1 + rng.IntN(48)
				if n, pred := a.tree.bestFit(size); n != nil && pred != nil && n.size > size &&
					regionLess(pred.size, pred.off, n.size-size, n.off+size) {
					inPlace++
				}
				if b, ok := a.alloc(size); ok {
					live = append(live, b)
				}
			} else if len(live) > 0 {
				j := rng.IntN(len(live))
				a.free(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := a.check(); err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, i, err)
			}
		}
		if inPlace == 0 {
			t.Errorf("seed %d: no best fit above its predecessor shrank in place", seed)
		}
	}
}

func TestAllocatedBlocksNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := newAllocator(4096)
	type region struct{ off, size int }
	var live []region
	var blks []uint32
	overlap := func(x, y region) bool {
		return x.off < y.off+y.size && y.off < x.off+x.size
	}
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.6 {
			size := 1 + rng.IntN(128)
			if b, ok := a.alloc(size); ok {
				nb := region{a.recs[b].off, size}
				for _, r := range live {
					if overlap(nb, r) {
						t.Fatalf("step %d: alloc returned overlapping block", i)
					}
				}
				live = append(live, nb)
				blks = append(blks, b)
			}
		} else if len(blks) > 0 {
			j := rng.IntN(len(blks))
			a.free(blks[j])
			blks[j] = blks[len(blks)-1]
			blks = blks[:len(blks)-1]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}
