package clampi

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAVLInsertRemoveBestFit(t *testing.T) {
	var tr avlTree
	tr.insert(10, 0, 0)
	tr.insert(5, 100, 0)
	tr.insert(20, 200, 0)
	if tr.len() != 3 {
		t.Fatalf("len = %d, want 3", tr.len())
	}
	n, _ := tr.bestFit(6)
	if n == nil || n.size != 10 || n.off != 0 {
		t.Errorf("bestFit(6) = %v, want (10,0)", n)
	}
	n, _ = tr.bestFit(11)
	if n == nil || n.size != 20 || n.off != 200 {
		t.Errorf("bestFit(11) = %v, want (20,200)", n)
	}
	if n, _ := tr.bestFit(21); n != nil {
		t.Error("bestFit(21) found a region in a tree whose max is 20")
	}
	if !tr.remove(10, 0) {
		t.Error("remove(10,0) failed")
	}
	if tr.remove(10, 0) {
		t.Error("remove(10,0) succeeded twice")
	}
	n, _ = tr.bestFit(6)
	if n == nil || n.size != 20 || n.off != 200 {
		t.Errorf("after removal bestFit(6) = %v, want (20,200)", n)
	}
}

func TestAVLTiesBrokenByOffset(t *testing.T) {
	var tr avlTree
	tr.insert(8, 300, 0)
	tr.insert(8, 100, 0)
	tr.insert(8, 200, 0)
	n, _ := tr.bestFit(8)
	if n == nil || n.off != 100 {
		t.Errorf("bestFit(8) = %v, want offset 100 (lowest offset among equal sizes)", n)
	}
	if n := tr.checkBalance(); n != 3 {
		t.Errorf("checkBalance = %d, want 3", n)
	}
}

func TestAVLMax(t *testing.T) {
	var tr avlTree
	if tr.max() != nil {
		t.Error("max of empty tree reported a node")
	}
	tr.insert(3, 0, 0)
	tr.insert(9, 50, 0)
	tr.insert(7, 80, 0)
	n := tr.max()
	if n == nil || n.size != 9 {
		t.Errorf("max = %v, want size 9", n)
	}
}

func TestAVLStaysBalancedUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var tr avlTree
	type region struct{ size, off int }
	live := map[region]bool{}
	nextOff := 0
	for i := 0; i < 5000; i++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			r := region{size: 1 + rng.IntN(100), off: nextOff}
			nextOff += 1000
			tr.insert(r.size, r.off, 0)
			live[r] = true
		} else {
			for r := range live {
				tr.remove(r.size, r.off)
				delete(live, r)
				break
			}
		}
		if i%500 == 0 {
			if n := tr.checkBalance(); n != len(live) {
				t.Fatalf("step %d: checkBalance = %d, want %d", i, n, len(live))
			}
		}
	}
	if n := tr.checkBalance(); n != len(live) {
		t.Fatalf("final: checkBalance = %d, want %d", n, len(live))
	}
}

// TestAVLNodePoolRecycles pins the allocation profile: once the pool has
// grown to the working-set size, insert/remove churn allocates nothing.
func TestAVLNodePoolRecycles(t *testing.T) {
	var tr avlTree
	for i := 0; i < 64; i++ {
		tr.insert(i+1, i*100, 0)
	}
	for i := 0; i < 64; i++ {
		tr.remove(i+1, i*100)
	}
	if got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tr.insert(i+1, i*100, 0)
		}
		for i := 0; i < 64; i++ {
			tr.remove(i+1, i*100)
		}
	}); got != 0 {
		t.Errorf("steady-state insert/remove allocates %.1f/op, want 0", got)
	}
	tr.reset()
	if tr.len() != 0 || tr.root != nil {
		t.Error("reset left nodes in the tree")
	}
}

func TestAVLDuplicatePanics(t *testing.T) {
	var tr avlTree
	tr.insert(4, 4, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	tr.insert(4, 4, 0)
}

// Property: bestFit always returns the minimal adequate region and its
// in-order predecessor, nil exactly when that is the smallest region of all.
func TestAVLBestFitProperty(t *testing.T) {
	f := func(sizes []uint8, want uint8) bool {
		var tr avlTree
		off := 0
		var all [][2]int
		for _, s := range sizes {
			size := int(s)%64 + 1
			tr.insert(size, off, 0)
			all = append(all, [2]int{size, off})
			off += 100
		}
		w := int(want)%64 + 1
		n, pred := tr.bestFit(w)
		// Reference scan.
		bestSize, bestOff, refOK := 0, 0, false
		for _, r := range all {
			if r[0] >= w && (!refOK || regionLess(r[0], r[1], bestSize, bestOff)) {
				bestSize, bestOff, refOK = r[0], r[1], true
			}
		}
		if (n != nil) != refOK {
			return false
		}
		if n == nil {
			return true
		}
		predSize, predOff, hasPred := 0, 0, false
		for _, r := range all {
			if regionLess(r[0], r[1], bestSize, bestOff) && (!hasPred || regionLess(predSize, predOff, r[0], r[1])) {
				predSize, predOff, hasPred = r[0], r[1], true
			}
		}
		if (pred != nil) != hasPred || hasPred && (pred.size != predSize || pred.off != predOff) {
			return false
		}
		return n.size == bestSize && n.off == bestOff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
