package rma

import (
	"encoding/binary"
	"sync"
	"testing"
)

func twoRankComm() (*Comm, *Window) {
	c := NewComm(2, DefaultCostModel())
	local := [][]byte{make([]byte, 64), make([]byte, 64)}
	w := c.CreateWindow("test", local)
	return c, w
}

// accumulate is a one-element AccumulateBatch: the tests' generic remote
// write.
func accumulate(r *Rank, w *Window, target, offset int, delta uint64) {
	r.AccumulateBatch(w, target, []Update{{Offset: offset, Delta: delta}})
}

func TestAccumulate(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)
	accumulate(r, w, 1, 8, 5)
	accumulate(r, w, 1, 8, 7)
	r.FlushAll(w)
	got := binary.LittleEndian.Uint64(w.loc[1][8:])
	if got != 12 {
		t.Fatalf("accumulated value = %d, want 12", got)
	}
	// A local accumulate lands at issue.
	accumulate(r, w, 0, 0, 3)
	if got := binary.LittleEndian.Uint64(w.loc[0][0:]); got != 3 {
		t.Fatalf("local accumulate not applied at issue: %d, want 3", got)
	}
	r.UnlockAll(w)
}

func TestAccumulateConcurrentRanks(t *testing.T) {
	const perRank = 200
	c := NewComm(4, DefaultCostModel())
	w := c.CreateWindow("ctr", [][]byte{make([]byte, 8), nil, nil, nil})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := c.Rank(id)
			r.LockAll(w)
			for k := 0; k < perRank; k++ {
				accumulate(r, w, 0, 0, 1)
			}
			r.UnlockAll(w)
		}(i)
	}
	wg.Wait()
	got := binary.LittleEndian.Uint64(w.loc[0])
	if got != 4*perRank {
		t.Fatalf("concurrent accumulates lost updates: %d, want %d", got, 4*perRank)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	c := NewComm(4, DefaultCostModel())
	b := c.NewBarrier()
	ranks := mustRun(t, c, func(r *Rank) {
		// Rank i works i·10 µs before the barrier.
		advanceBy(r, float64(r.ID())*10000)
		b.Wait(r)
	})
	want := 30000 + DefaultCostModel().BarrierLatency
	for _, r := range ranks {
		if r.Now() != want {
			t.Fatalf("rank %d clock %.0f after barrier, want %.0f", r.ID(), r.Now(), want)
		}
	}
	// The straggler (rank 3) waited only the barrier latency; rank 0
	// waited for everyone.
	if w0, w3 := ranks[0].Counters().FlushWait, ranks[3].Counters().FlushWait; w0 <= w3 {
		t.Fatalf("rank 0 waited %.0f, rank 3 waited %.0f; want rank 0 to wait longer", w0, w3)
	}
}

func TestBarrierReusable(t *testing.T) {
	c := NewComm(2, DefaultCostModel())
	b := c.NewBarrier()
	ranks := mustRun(t, c, func(r *Rank) {
		for round := 0; round < 5; round++ {
			advanceBy(r, float64(r.ID()+1)*1000)
			b.Wait(r)
		}
	})
	if ranks[0].Now() != ranks[1].Now() {
		t.Fatalf("clocks diverged after repeated barriers: %.0f vs %.0f",
			ranks[0].Now(), ranks[1].Now())
	}
}

func TestFence(t *testing.T) {
	c, w := twoRankComm()
	b := c.NewBarrier()
	ranks := mustRun(t, c, func(r *Rank) {
		r.LockAll(w)
		accumulate(r, w, 1-r.ID(), 0, uint64(r.ID())+1)
		r.Fence(w, b)
		if got := binary.LittleEndian.Uint64(w.loc[r.ID()]); got != uint64(2-r.ID()) {
			t.Errorf("rank %d: fence left the peer's accumulate unapplied: %d", r.ID(), got)
		}
		r.UnlockAll(w)
	})
	if ranks[0].Now() != ranks[1].Now() {
		t.Fatalf("fence left clocks unaligned: %.0f vs %.0f",
			ranks[0].Now(), ranks[1].Now())
	}
}

func TestAccumulateOutsideEpochPanics(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	defer func() {
		if recover() == nil {
			t.Fatal("accumulate outside an epoch did not panic")
		}
	}()
	accumulate(r, w, 1, 0, 1)
}

func TestAccumulateOutOfRangePanics(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range accumulate did not panic")
		}
	}()
	accumulate(r, w, 1, 60, 1) // needs 8 bytes, only 4 left
}

func TestAccumulateBatch(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)
	r.LockAll(w)
	r.AccumulateBatch(w, 1, []Update{
		{Offset: 0, Delta: 3},
		{Offset: 8, Delta: 5},
		{Offset: 0, Delta: 4}, // repeated offset folds into the same word
	})
	if got := binary.LittleEndian.Uint64(w.loc[1][0:]); got != 0 {
		t.Fatalf("remote batch landed before the flush: word 0 = %d", got)
	}
	r.FlushAll(w)
	if got := binary.LittleEndian.Uint64(w.loc[1][0:]); got != 7 {
		t.Errorf("word 0 = %d, want 7", got)
	}
	if got := binary.LittleEndian.Uint64(w.loc[1][8:]); got != 5 {
		t.Errorf("word 8 = %d, want 5", got)
	}
	ctr := r.Counters()
	if ctr.Puts != 1 {
		t.Errorf("Puts = %d, want 1 (the whole batch is one message)", ctr.Puts)
	}
	if ctr.RemoteBytes != 3*updateWireBytes {
		t.Errorf("RemoteBytes = %d, want %d", ctr.RemoteBytes, 3*updateWireBytes)
	}
	r.UnlockAll(w)
}

func TestAccumulateBatchLocal(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(1)
	r.LockAll(w)
	r.AccumulateBatch(w, 1, []Update{{Offset: 16, Delta: 9}})
	if got := binary.LittleEndian.Uint64(w.loc[1][16:]); got != 9 {
		t.Errorf("local word = %d, want 9", got)
	}
	if ctr := r.Counters(); ctr.Puts != 0 || ctr.RemoteBytes != 0 {
		t.Errorf("local batch charged remote counters: %+v", ctr)
	}
	r.UnlockAll(w)
}

func TestAccumulateBatchPanics(t *testing.T) {
	c, w := twoRankComm()
	r := c.Rank(0)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("outside epoch", func() {
		r.AccumulateBatch(w, 1, []Update{{Offset: 0, Delta: 1}})
	})
	r.LockAll(w)
	mustPanic("offset out of range", func() {
		r.AccumulateBatch(w, 1, []Update{{Offset: 60, Delta: 1}})
	})
	mustPanic("negative offset", func() {
		r.AccumulateBatch(w, 1, []Update{{Offset: -8, Delta: 1}})
	})
	r.UnlockAll(w)
}

func TestAccessors(t *testing.T) {
	c, w := twoRankComm()
	if c.p != 2 {
		t.Errorf("world size = %d, want 2", c.p)
	}
	r := c.Rank(0)
	if w.SizeAt(1) != 64 {
		t.Errorf("SizeAt(1) = %d, want 64", w.SizeAt(1))
	}
	r.LockAll(w)
	issued := r.Now()
	var q Request
	r.GetInto(&q, w, 1, 0, 8)
	q.Wait()
	if r.Now() <= issued {
		t.Error("remote get completes no later than issue time")
	}
	r.FlushAll(w)
	r.UnlockAll(w)
}
