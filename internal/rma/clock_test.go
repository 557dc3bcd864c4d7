package rma

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v", c.Now())
	}
	c.Advance(ChargeNS, 10)
	c.Advance(ChargeNS, -5) // negative durations are ignored
	if c.Now() != 10 {
		t.Errorf("Now = %v, want 10", c.Now())
	}
	c.AdvanceTo(ChargeGetWait, 8) // past: no-op
	if c.Now() != 10 {
		t.Errorf("AdvanceTo(past) moved the clock to %v", c.Now())
	}
	c.AdvanceTo(ChargeGetWait, 25)
	if c.Now() != 25 {
		t.Errorf("AdvanceTo(future) = %v, want 25", c.Now())
	}
	if l := c.Ledger(); l[ChargeNS] != 10 || l[ChargeGetWait] != 15 || l.Comm() != 15 {
		t.Errorf("ledger ns %v, get-wait %v, comm %v: want 10, 15, 15", l[ChargeNS], l[ChargeGetWait], l.Comm())
	}
}

// Property: a clock never runs backwards under any interleaving of
// Advance/AdvanceTo calls.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []int16) bool {
		var c Clock
		prev := 0.0
		for _, s := range steps {
			if s%2 == 0 {
				c.Advance(ChargeNS, float64(s))
			} else {
				c.AdvanceTo(ChargeGetWait, float64(s))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMultipleWindowsIndependentFlush: each open epoch keeps its own flush
// horizon and staged writes, so flushing w1 waits for w1's accumulates only.
func TestMultipleWindowsIndependentFlush(t *testing.T) {
	c := NewComm(2, DefaultCostModel())
	w1 := c.CreateWindow("w1", [][]byte{nil, make([]byte, 64)})
	w2 := c.CreateWindow("w2", [][]byte{nil, make([]byte, 64)})
	r := c.Rank(0)
	r.LockAll(w1)
	r.LockAll(w2)
	accumulate(r, w1, 1, 0, 1)
	advanceBy(r, 1000)
	accumulate(r, w2, 1, 0, 1)
	m := DefaultCostModel()
	cost := m.RemoteCost(updateWireBytes)
	r.FlushAll(w1)
	if got := r.Now(); got != cost {
		t.Errorf("flush of w1 ended at %v, want w1's horizon %v", got, cost)
	}
	if w1.loc[1][0] != 1 || w2.loc[1][0] != 0 {
		t.Errorf("flush of w1 committed w1=%d w2=%d, want 1 and 0", w1.loc[1][0], w2.loc[1][0])
	}
	r.UnlockAll(w2) // implies flush
	if got := r.Now(); got != 1000+cost {
		t.Errorf("UnlockAll(w2) ended at %v, want w2's horizon %v", got, 1000+cost)
	}
	if w2.loc[1][0] != 1 {
		t.Error("UnlockAll did not flush w2")
	}
	r.UnlockAll(w1)
}

func TestComputeVsAdvanceByCounters(t *testing.T) {
	c := NewComm(1, DefaultCostModel())
	r := c.Rank(0)
	r.Compute(100)
	advanceBy(r, 500)
	l := r.Ledger()
	want := 100*DefaultCostModel().ComputePerOp + 500
	if got := l[ChargeOps] + l[ChargeNS]; math.Abs(got-want) > 1e-9 || l.Comm() != 0 {
		t.Errorf("ledger ops+ns = %v, comm = %v, want %v and 0", got, l.Comm(), want)
	}
	if math.Abs(r.Now()-want) > 1e-9 {
		t.Errorf("clock = %v, want %v", r.Now(), want)
	}
}

// advanceBy charges ns of work to r, booked as ChargeNS: a test's way to
// stand a rank's clock where it needs it.
func advanceBy(r *Rank, ns float64) { r.fold(ChargeNS, 0, ns) }

func TestRankIDValidation(t *testing.T) {
	c := NewComm(2, DefaultCostModel())
	defer func() {
		if recover() == nil {
			t.Error("Rank(5) on a 2-rank world did not panic")
		}
	}()
	c.Rank(5)
}

// TestChargeKindNames: every ledger slot, the tape's kinds and the
// ledger-only ones alike, has a name of its own.
func TestChargeKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := ChargeKind(0); k < NumLedgerSlots; k++ {
		if n := k.String(); n == "" || n == "unknown" || seen[n] {
			t.Errorf("kind %d: name %q empty or repeated", k, n)
		}
		seen[k.String()] = true
	}
}
