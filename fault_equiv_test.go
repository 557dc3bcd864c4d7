// Fault-plane equivalence tests: the headline invariant of the
// deterministic fault plane (DESIGN.md §7). Running any golden engine
// configuration under an injected fault schedule must
//
//  1. leave every computed result — triangle counts, closed-triplet sums,
//     LCC checksums — bit-identical to the fault-free run (faults cost
//     simulated time, never correctness),
//  2. produce a SimTime that is deterministically reproducible for a
//     given (configuration, fault seed) at ANY worker count, and
//  3. never finish before the fault-free run: every recovery charge is a
//     non-negative clock addition folded outside the noise stream.
//
// The fault-free pins themselves stay untouched: goldenConfigs runs with
// faults == nil remain the single source of truth for the seed values.
package repro_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/lcc"
)

// faultScenarios is the fault-injection table every golden configuration
// is replayed under. Rates are sized so recovery penalties dominate the
// noise-repairing fluctuation of the noise configuration (whose spike
// schedule is time-indexed): the SimTime >= fault-free assertion is then a
// deterministic outcome, not a statistical one.
var faultScenarios = []struct {
	name string
	spec fault.Spec
}{
	// Transient remote-op failures on every class: the retry/backoff/
	// retransmit loop is the only recovery path exercised.
	{"retry-storm", fault.Spec{Seed: 101, GetFailPct: 0.02, AccFailPct: 0.02}},
	// Pure latency faults: spikes and periodic stall windows, no retries.
	{"spikes-stalls", fault.Spec{Seed: 202, SpikePct: 0.01, SpikeNS: 2e4, StallPeriodOps: 4096, StallNS: 1e5}},
	// Cache degradation riding on a low failure rate: the degraded
	// direct-RMA fallback (cached engine) fires.
	{"cache", fault.Spec{Seed: 303, GetFailPct: 0.005, CacheFailPct: 0.002}},
	// Everything at once: the chaos preset the CI lane uses.
	{"chaos", fault.ChaosSpec(7)},
	// Crash-stop with recovery: rank 2 dies at its 1500th remote op, pays
	// the restart delay plus a re-execution charge from its last barrier,
	// and the run completes. Engines with fewer remote ops per rank simply
	// never arm the crash — the >= invariant still holds with equality.
	{"crash-recover", fault.Spec{Seed: 404, CrashAtOp: 1500, CrashRank: 2, CrashRecover: true}},
}

// TestFaultEquivalence replays the full golden table under every fault
// scenario and asserts the three invariants above. Worker counts 1 and 4
// run everywhere; the chaos scenario additionally sweeps 2 and 8 in long
// mode, mirroring TestGoldenWorkerSweep.
func TestFaultEquivalence(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, sc := range faultScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, cfg := range goldenConfigs {
				workerCounts := []int{1, 4}
				if sc.name == "chaos" && !testing.Short() {
					workerCounts = []int{1, 2, 4, 8}
				}
				var refSim uint64
				for i, wk := range workerCounts {
					got := cfg.run(t, g, wk, &sc.spec)
					// Invariant 1: results are bit-identical to the
					// fault-free pins (SimTime is the one field faults
					// may — and must — move).
					want := cfg.want
					want.simBits = got.simBits
					checkGoldenRun(t, fmt.Sprintf("%s/%s/workers=%d", cfg.name, sc.name, wk), got, want)
					// Invariant 3: no faulted run beats fault-free.
					if ff := math.Float64frombits(cfg.want.simBits); math.Float64frombits(got.simBits) < ff {
						t.Errorf("%s/%s: faulted SimTime %v below fault-free %v",
							cfg.name, sc.name, math.Float64frombits(got.simBits), ff)
					}
					// Invariant 2: SimTime bits agree across worker counts.
					if i == 0 {
						refSim = got.simBits
					} else if got.simBits != refSim {
						t.Errorf("%s/%s: SimTime bits %#x at workers=%d, %#x at workers=%d",
							cfg.name, sc.name, got.simBits, wk, refSim, workerCounts[0])
					}
				}
			}
		})
	}
}

// TestCrashFailFastDeterminism pins the other half of the crash-stop
// class: without CrashRecover the run fails fast with a typed
// *fault.CrashError naming the rank and op index, the error text is
// identical at every worker count, and a subsequent fault-free run still
// hits the golden pins — a simulated crash leaves no residue. The 2D grid
// engine issues only a few block gets per rank, so its crash fires at
// rank 0's first.
func TestCrashFailFastDeterminism(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	lateCrash := fault.Spec{Seed: 17, CrashAtOp: 1500, CrashRank: 2}
	engines := []struct {
		name string
		spec fault.Spec
		run  func(opt lcc.Options) error
	}{
		{"pull", lateCrash, func(opt lcc.Options) error {
			_, err := lcc.Run(g, opt)
			return err
		}},
		{"push", lateCrash, func(opt lcc.Options) error {
			_, err := lcc.RunPush(g, lcc.PushOptions{Options: opt, Aggregation: lcc.PushBatched})
			return err
		}},
		{"replicated", lateCrash, func(opt lcc.Options) error {
			_, err := lcc.RunReplicated(g, lcc.ReplicatedOptions{Options: opt, Replication: 2})
			return err
		}},
		{"grid", fault.Spec{Seed: 17, CrashAtOp: 1, CrashRank: 0}, func(opt lcc.Options) error {
			_, err := grid.Run(g, grid.Options{Ranks: 4, Workers: opt.Workers, Faults: opt.Faults})
			return err
		}},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			spec := eng.spec
			var ref string
			for i, wk := range []int{1, 4} {
				opt := goldenBase()
				opt.Workers = wk
				opt.Faults = &spec
				err := eng.run(opt)
				var ce *fault.CrashError
				if !errors.As(err, &ce) {
					t.Fatalf("workers=%d: err = %v, want *fault.CrashError", wk, err)
				}
				if ce.Rank != spec.CrashRank || ce.Op != spec.CrashAtOp {
					t.Errorf("workers=%d: crash at rank %d op %d, want rank %d op %d", wk, ce.Rank, ce.Op, spec.CrashRank, spec.CrashAtOp)
				}
				if i == 0 {
					ref = err.Error()
				} else if err.Error() != ref {
					t.Errorf("workers=%d: error %q differs from workers=1 %q", wk, err, ref)
				}
			}
		})
	}
	// No residue: the fault-free pull pins still hold after the crashes.
	pull := goldenConfigs[0]
	checkGoldenRun(t, "pull/after-crash", pull.run(t, g, 0, nil), pull.want)
}

// TestFaultChaos is the CI chaos lane: the golden configurations rotated
// under the chaos preset at eight fixed seeds. Any result drift or a
// faulted run undercutting its fault-free pin fails the lane.
func TestFaultChaos(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := goldenConfigs[int(seed)%len(goldenConfigs)]
			spec := fault.ChaosSpec(seed)
			got := cfg.run(t, g, 0, &spec)
			want := cfg.want
			want.simBits = got.simBits
			checkGoldenRun(t, cfg.name, got, want)
			if ff := math.Float64frombits(cfg.want.simBits); math.Float64frombits(got.simBits) < ff {
				t.Errorf("%s: faulted SimTime %v below fault-free %v",
					cfg.name, math.Float64frombits(got.simBits), ff)
			}
		})
	}
}

// FuzzFaultSchedule throws arbitrary fault schedules at the pull
// configuration: whatever the rates, results never change and SimTime is
// reproducible across two replays. Inputs are folded into valid ranges
// rather than rejected so every fuzz execution exercises the plane.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), 0.01, 0.0, 0.0, uint64(0))
	f.Add(uint64(2), 0.0, 0.05, 2e4, uint64(4096))
	f.Add(uint64(3), 0.1, 0.02, 1e5, uint64(100))
	f.Add(uint64(99), 0.3, 0.3, 5e4, uint64(1))
	g := gen.MustLoad("fb-sim")
	pull := goldenConfigs[0]
	fold := func(p float64) float64 {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return 0
		}
		return math.Mod(p, 0.35)
	}
	f.Fuzz(func(t *testing.T, seed uint64, failPct, spikePct, spikeNS float64, stallOps uint64) {
		if math.IsNaN(spikeNS) || math.IsInf(spikeNS, 0) || spikeNS < 0 {
			spikeNS = 0
		}
		spec := fault.Spec{
			Seed:           seed,
			GetFailPct:     fold(failPct),
			SpikePct:       fold(spikePct),
			SpikeNS:        math.Mod(spikeNS, 1e6),
			StallPeriodOps: int(stallOps % 65536),
			StallNS:        5e4,
		}
		got := pull.run(t, g, 1, &spec)
		want := pull.want
		want.simBits = got.simBits
		checkGoldenRun(t, "pull/fuzz", got, want)
		if replay := pull.run(t, g, 2, &spec); replay.simBits != got.simBits {
			t.Errorf("SimTime not reproducible: %#x vs %#x on replay (spec %v)",
				got.simBits, replay.simBits, spec.String())
		}
	})
}
