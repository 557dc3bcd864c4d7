package rma

import (
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

// faultWait sums l's six fault-plane slots: the time lost to recovery.
func faultWait(l Ledger) float64 {
	var t float64
	for k := ChargeRetryBackoff; k <= ChargeCrashRedo; k++ {
		t += l[k]
	}
	return t
}

// TestFaultRetryCharges: transient get failures charge recovery time and
// count retries, leave the logical op counts untouched, and push SimTime
// strictly above the fault-free run.
func TestFaultRetryCharges(t *testing.T) {
	base, baseSim := faultGetRun(t, nil, nil)
	spec := &fault.Spec{Seed: 5, GetFailPct: 0.05}
	got, sim := faultGetRun(t, spec, nil)
	for i, r := range got {
		ctr, want := r.Counters(), base[i].Counters()
		if ctr.Retries == 0 || faultWait(r.Ledger()) == 0 {
			t.Fatalf("rank %d: no recovery recorded under 5%% failures: %+v", i, ctr)
		}
		if ctr.Gets != want.Gets || ctr.RemoteBytes != want.RemoteBytes {
			t.Fatalf("rank %d: logical op counts changed under faults: %+v vs %+v", i, ctr, want)
		}
	}
	if sim <= baseSim {
		t.Fatalf("faulted SimTime %v not above fault-free %v", sim, baseSim)
	}
}

// TestFaultSpikesAndStalls: latency spikes and stall windows charge
// fault-plane time without any retransmits.
func TestFaultSpikesAndStalls(t *testing.T) {
	_, baseSim := faultGetRun(t, nil, nil)
	spec := &fault.Spec{Seed: 8, SpikePct: 0.05, SpikeNS: 1e4, StallPeriodOps: 100, StallNS: 5e4}
	got, sim := faultGetRun(t, spec, nil)
	for i, r := range got {
		if ctr := r.Counters(); ctr.Retries != 0 {
			t.Fatalf("rank %d: spikes/stalls must not retransmit: %+v", i, ctr)
		}
		if faultWait(r.Ledger()) == 0 {
			t.Fatalf("rank %d: no fault-plane time under spikes+stalls", i)
		}
	}
	if sim <= baseSim {
		t.Fatalf("faulted SimTime %v not above fault-free %v", sim, baseSim)
	}
}

// TestFaultChargeDigest is the fault plane's slice of the charge tape
// contract: under faults, each rank's observed charge sequence — kinds,
// bytes, durations and folded clock bits, and their number — matches the
// digest recorded when both fold schedules still existed and agreed on it.
func TestFaultChargeDigest(t *testing.T) {
	want := [2]struct {
		ops int
		sum uint64
	}{{2057, 0xf978d090ebb6c644}, {2075, 0xf87110498e2ba737}}
	got := want
	for r := range got {
		got[r].ops, got[r].sum = 0, 14695981039346656037
	}
	var sawFault [2]bool // per rank: observers run on the rank's goroutine
	obs := func(rank int, kind ChargeKind, bytes int, ns, now float64) {
		d := &got[rank]
		for _, x := range [...]uint64{uint64(kind), uint64(bytes), math.Float64bits(ns), math.Float64bits(now)} {
			d.sum = (d.sum ^ x) * 1099511628211
		}
		d.ops++
		switch kind {
		case ChargeRetryBackoff, ChargeTimeout, ChargeRetransmit, ChargeStall:
			sawFault[rank] = true
		}
	}
	spec := fault.ChaosSpec(21)
	_, sim := faultGetRun(t, &spec, obs)
	if got != want {
		t.Errorf("charge digests %+v, want %+v", got, want)
	}
	if bits := math.Float64bits(sim); bits != 0x4152782ae83588fc {
		t.Errorf("SimTime bits %#x, want 0x4152782ae83588fc", bits)
	}
	if sawFault == [2]bool{} {
		t.Fatal("chaos spec injected no fault charges")
	}
}

// TestFaultDeterministicReplay: equal specs replay bit-identical clocks.
func TestFaultDeterministicReplay(t *testing.T) {
	spec := fault.ChaosSpec(33)
	_, sim1 := faultGetRun(t, &spec, nil)
	_, sim2 := faultGetRun(t, &spec, nil)
	if math.Float64bits(sim1) != math.Float64bits(sim2) {
		t.Fatalf("replay diverged: %x vs %x", math.Float64bits(sim1), math.Float64bits(sim2))
	}
	other := fault.ChaosSpec(34)
	_, sim3 := faultGetRun(t, &other, nil)
	if math.Float64bits(sim1) == math.Float64bits(sim3) {
		t.Fatal("different seeds produced identical SimTime — schedule ignores the seed")
	}
}

// TestFaultWriteOps: the write side (AccumulateBatch) consults the
// schedule too, and results are unchanged.
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
			wait += faultWait(r.Ledger())
		}
		return ctr, wait, sum, MaxClock(ranks)
	}
	base, _, baseSum, baseSim := run(nil)
	spec := &fault.Spec{Seed: 2, AccFailPct: 0.05}
	got, wait, sum, sim := run(spec)
	if sum != baseSum {
		t.Fatalf("accumulated values changed under faults: %d vs %d", sum, baseSum)
	}
	if got.Retries == 0 || wait == 0 {
		t.Fatalf("write ops recorded no recovery: %+v", got)
	}
	if got.Puts != base.Puts {
		t.Fatalf("logical write count changed: %d vs %d", got.Puts, base.Puts)
	}
	if sim <= baseSim {
		t.Fatalf("faulted SimTime %v not above fault-free %v", sim, baseSim)
	}
}
