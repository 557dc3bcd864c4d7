package rma

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
)

// faultGetRun drives a 2-rank world of cross-rank gets under the given
// fault spec and observer, returning the final ranks and SimTime.
func faultGetRun(t *testing.T, spec *fault.Spec, obs ChargeObserver) ([]*Rank, float64) {
	t.Helper()
	c := NewComm(2, DefaultCostModel())
	c.SetFaults(spec)
	if obs != nil {
		c.SetChargeObserver(obs)
	}
	local := [][]byte{make([]byte, 1<<14), make([]byte, 1<<14)}
	w := c.CreateReadOnlyWindow("data", local)
	ranks := mustRun(t, c, func(r *Rank) {
		r.LockAll(w)
		var q Request
		for i := 0; i < 2000; i++ {
			r.GetInto(&q, w, 1-r.ID(), (i%255)*64, 64)
			q.Wait()
		}
		r.UnlockAll(w)
	})
	return ranks, MaxClock(ranks)
}

// crashWait sums l's two crash slots: the time lost to recovery.
func crashWait(l Ledger) float64 {
	return l[ChargeCrashRestart] + l[ChargeCrashRedo]
}

// TestFaultChargeDigest is the fault plane's slice of the charge tape
// contract: under a recovered crash, each rank's observed charge sequence —
// kinds, bytes, durations and folded clock bits, and their number —
// matches the recorded digest, and the crash charges appear on the crashed
// rank only.
func TestFaultChargeDigest(t *testing.T) {
	want := [2]struct {
		ops int
		sum uint64
	}{{2000, 0x8bb54cb6a0478bf3}, {2002, 0x1d73e633525c8186}}
	got := want
	for r := range got {
		got[r].ops, got[r].sum = 0, 14695981039346656037
	}
	var sawCrash [2]bool // per rank: observers run on the rank's goroutine
	obs := func(rank int, kind ChargeKind, bytes int, ns, now float64) {
		d := &got[rank]
		for _, x := range [...]uint64{uint64(kind), uint64(bytes), math.Float64bits(ns), math.Float64bits(now)} {
			d.sum = (d.sum ^ x) * 1099511628211
		}
		d.ops++
		if kind == ChargeCrashRestart || kind == ChargeCrashRedo {
			sawCrash[rank] = true
		}
	}
	_, sim := faultGetRun(t, &fault.Spec{CrashAtOp: 1200, CrashRank: 1, CrashRecover: true}, obs)
	if got != want {
		t.Errorf("charge digests %+v, want %+v", got, want)
	}
	if bits := math.Float64bits(sim); bits != 0x4165c76d33333399 {
		t.Errorf("SimTime bits %#x, want 0x4165c76d33333399", bits)
	}
	if sawCrash != [2]bool{false, true} {
		t.Fatalf("crash charges seen per rank %v, want on rank 1 only", sawCrash)
	}
}

// TestFaultDeterministicReplay: equal specs replay bit-identical clocks,
// a recovered crash costs time, and a crash at another op costs another.
func TestFaultDeterministicReplay(t *testing.T) {
	_, base := faultGetRun(t, nil, nil)
	spec := &fault.Spec{CrashAtOp: 900, CrashRank: 0, CrashRecover: true}
	_, sim1 := faultGetRun(t, spec, nil)
	_, sim2 := faultGetRun(t, spec, nil)
	if math.Float64bits(sim1) != math.Float64bits(sim2) {
		t.Fatalf("replay diverged: %x vs %x", math.Float64bits(sim1), math.Float64bits(sim2))
	}
	if sim1 <= base {
		t.Fatalf("recovered SimTime %v not above fault-free %v", sim1, base)
	}
	_, sim3 := faultGetRun(t, &fault.Spec{CrashAtOp: 1900, CrashRank: 0, CrashRecover: true}, nil)
	if math.Float64bits(sim1) == math.Float64bits(sim3) {
		t.Fatal("crashes at ops 900 and 1900 produced identical SimTime — the redo ignores the crash point")
	}
}

// TestFaultWriteOps: the write side (AccumulateBatch) counts toward the
// schedule too — a crash can land on an accumulate — and a recovered one
// leaves the accumulated values and the logical write count unchanged.
func TestFaultWriteOps(t *testing.T) {
	run := func(spec *fault.Spec) (Counters, float64, uint64, float64) {
		c := NewComm(2, DefaultCostModel())
		c.SetFaults(spec)
		local := [][]byte{make([]byte, 1024), make([]byte, 1024)}
		w := c.CreateWindow("acc", local)
		b := c.NewBarrier()
		ranks := mustRun(t, c, func(r *Rank) {
			r.LockAll(w)
			for i := 0; i < 200; i++ {
				accumulate(r, w, 1-r.ID(), 0, 1)
				r.AccumulateBatch(w, 1-r.ID(), []Update{{Offset: 8, Delta: 2}})
				r.FlushAll(w)
				if i == 100 {
					b.Wait(r)
				}
			}
			b.Wait(r)
			r.UnlockAll(w)
		})
		sum := uint64(0)
		for i := 0; i < 2; i++ {
			sum += DecodeUint64s(local[i][:8])[0]
		}
		ctr, wait := Counters{}, 0.0
		for _, r := range ranks {
			ctr.Merge(r.Counters())
			wait += crashWait(r.Ledger())
		}
		return ctr, wait, sum, MaxClock(ranks)
	}
	base, _, baseSum, baseSim := run(nil)
	got, wait, sum, sim := run(&fault.Spec{CrashAtOp: 301, CrashRank: 1, CrashRecover: true})
	if sum != baseSum {
		t.Fatalf("accumulated values changed under a recovered crash: %d vs %d", sum, baseSum)
	}
	if wait <= crashRestartNS {
		t.Fatalf("write ops recorded %v ns of recovery, want the restart and a redo since the barrier", wait)
	}
	if got.Puts != base.Puts {
		t.Fatalf("logical write count changed: %d vs %d", got.Puts, base.Puts)
	}
	if sim <= baseSim {
		t.Fatalf("faulted SimTime %v not above fault-free %v", sim, baseSim)
	}
	var ce *fault.CrashError
	c := NewComm(2, DefaultCostModel())
	c.SetFaults(&fault.Spec{CrashAtOp: 3, CrashRank: 0})
	w := c.CreateWindow("acc", [][]byte{make([]byte, 64), make([]byte, 64)})
	_, err := c.RunCtx(context.Background(), func(r *Rank) {
		r.LockAll(w)
		for i := 0; i < 5; i++ {
			r.AccumulateBatch(w, 1-r.ID(), []Update{{Offset: 0, Delta: 1}})
		}
		r.UnlockAll(w)
	})
	if !errors.As(err, &ce) || ce.Rank != 0 || ce.Op != 3 {
		t.Fatalf("fail-fast crash on an accumulate: err = %v, want rank 0 op 3", err)
	}
}
