package p2p

import (
	"math"
	"testing"

	"repro/internal/rma"
)

// TestBarrierAmplifiesNoise pins the mechanism behind the A7 ablation at
// the substrate level: under per-rank noise, a BSP world's barrier makes
// every rank pay the worst perturbation, so the world's clock advances by
// more than any average rank would alone.
func TestBarrierAmplifiesNoise(t *testing.T) {
	const ranks = 8
	const steps = 50
	const workNS = 10000

	run := func(noise rma.NoiseSpec) (maxClock float64, sumWait float64) {
		model := rma.DefaultCostModel()
		model.Noise = noise
		w := NewWorldWorkers(ranks, model, 0)
		for s := 0; s < steps; s++ {
			w.Superstep(func(r *Rank) {
				r.AdvanceBy(workNS)
			})
		}
		for _, r := range w.Ranks() {
			sumWait += r.Ledger()[rma.ChargeBarrierWait]
		}
		return w.MaxClock(), sumWait
	}

	quiet, quietWait := run(rma.NoiseSpec{})
	noisy, noisyWait := run(rma.NoiseSpec{Amp: 0.5, Seed: 3})

	if noisy <= quiet {
		t.Fatalf("noisy BSP world (%.0f) not slower than quiet (%.0f)", noisy, quiet)
	}
	// The barrier effect: expected per-step cost under max-of-8 U(0,0.5)
	// jitter is close to the 50% worst case, not the 25% average. Allow
	// slack but require the max-statistics signature.
	perStepExtra := (noisy - quiet) / steps
	if perStepExtra < 0.35*workNS {
		t.Fatalf("per-step noise cost %.0f ns; barrier should pay near-worst-case (~%.0f), not the mean",
			perStepExtra, 0.5*workNS)
	}
	if noisyWait <= quietWait {
		t.Fatalf("noise did not increase barrier waiting (%.0f vs %.0f)", noisyWait, quietWait)
	}
}

// TestNoiseDeterministicInBSP: identical seeds give identical superstep
// schedules.
func TestNoiseDeterministicInBSP(t *testing.T) {
	run := func() float64 {
		model := rma.DefaultCostModel()
		model.Noise = rma.NoiseSpec{Amp: 0.3, SpikePeriodNS: 20000, SpikeNS: 5000, Seed: 9}
		w := NewWorldWorkers(4, model, 0)
		for s := 0; s < 20; s++ {
			w.Superstep(func(r *Rank) {
				r.AdvanceBy(5000)
				r.SendPayload((r.ID()+1)%4, nil, 64)
			})
		}
		return w.MaxClock()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical noisy BSP runs diverged: %g vs %g", a, b)
	}
}

// TestLedgerUnderNoise: every clock move of a p2p rank is booked in its
// ledger at the size the clock took it, stretched under noise, so per rank
// the slots sum to the clock within 2 ulp, and the slots' bits are the same
// at one worker and at four.
func TestLedgerUnderNoise(t *testing.T) {
	run := func(workers int) []*Rank {
		model := rma.DefaultCostModel()
		model.Noise = rma.NoiseSpec{Amp: 0.3, Seed: 3}
		w := NewWorldWorkers(4, model, workers)
		for s := 0; s < 5; s++ {
			w.Superstep(func(r *Rank) {
				r.Compute(1000)
				r.AdvanceBy(500)
				r.SendPayload((r.ID()+1)%4, nil, 4<<10)
			})
		}
		w.AllreduceSum(make([]int64, 4))
		return w.Ranks()
	}
	one, four := run(1), run(4)
	for i, r := range one {
		l := r.Ledger()
		var sum float64
		for _, d := range l {
			sum += d
		}
		clock := r.clock.Now()
		if ulp := math.Nextafter(clock, math.Inf(1)) - clock; math.Abs(sum-clock) > 2*ulp {
			t.Errorf("rank %d: slots sum to %v, clock %v (%.1f ulp apart)", i, sum, clock, math.Abs(sum-clock)/ulp)
		}
		for _, k := range []rma.ChargeKind{rma.ChargeOps, rma.ChargeNS, rma.ChargeSend, rma.ChargeRecv, rma.ChargeBarrierWait} {
			if l[k] == 0 {
				t.Errorf("rank %d: nothing booked as %v", i, k)
			}
		}
		l4 := four[i].Ledger()
		for k := range l {
			if math.Float64bits(l4[k]) != math.Float64bits(l[k]) {
				t.Errorf("rank %d: %v slot %v at workers=4, %v at workers=1", i, rma.ChargeKind(k), l4[k], l[k])
			}
		}
	}
}
