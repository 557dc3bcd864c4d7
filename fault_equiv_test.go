// Fault-plane equivalence tests: the headline invariant of the
// deterministic fault plane (DESIGN.md §7). Running any golden engine
// configuration under a recovered crash must
//
//  1. leave every computed result — triangle counts, closed-triplet sums,
//     LCC checksums — bit-identical to the fault-free run (a crash costs
//     simulated time, never correctness),
//  2. produce a SimTime that is deterministically reproducible for a
//     given (configuration, crash point) at ANY worker count, and
//  3. never finish before the fault-free run: the restart and redo charges
//     are non-negative clock additions, and completion times and barrier
//     maxima are monotone in their inputs, so this holds by construction.
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
	"repro/internal/rma"
)

// faultScenarios is the fault-injection table every golden configuration
// is replayed under.
var faultScenarios = []struct {
	name string
	spec fault.Spec
}{
	// Crash-stop with recovery: rank 2 dies at its 1500th remote op, pays
	// the restart delay plus a re-execution charge from its last barrier,
	// and the run completes. Engines with fewer remote ops per rank simply
	// never arm the crash — the >= invariant still holds with equality.
	{"crash-recover", fault.Spec{CrashAtOp: 1500, CrashRank: 2, CrashRecover: true}},
}

// TestFaultEquivalence replays the full golden table under every fault
// scenario and asserts the three invariants above, at worker counts 1 and
// 4, and 2 and 8 as well in long mode, mirroring TestGoldenWorkerSweep.
func TestFaultEquivalence(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, sc := range faultScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, cfg := range goldenConfigs {
				workerCounts := []int{1, 4}
				if !testing.Short() {
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
	lateCrash := fault.Spec{CrashAtOp: 1500, CrashRank: 2}
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
			_, err := lcc.RunPush(g, opt)
			return err
		}},
		{"grid", fault.Spec{CrashAtOp: 1, CrashRank: 0}, func(opt lcc.Options) error {
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

// TestFaultChaos is the CI chaos lane: each golden configuration under a
// recovered crash at its own fixed points, one subtest per
// <config>/crashrecover=<rank>:<op>. Op 1 crashes a rank at its first remote
// operation, before it has issued any. The crash must fire — the crashed
// rank's ledger books the restart — and any result drift or a crashed run
// undercutting its fault-free pin fails the lane.
func TestFaultChaos(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	for _, cfg := range goldenConfigs {
		points, ok := chaosPoints[cfg.name]
		if !ok {
			t.Errorf("%s: no crash points", cfg.name)
		}
		for _, pt := range points {
			spec := fault.Spec{CrashRank: pt[0], CrashAtOp: pt[1], CrashRecover: true}
			t.Run(fmt.Sprintf("%s/%v", cfg.name, spec), func(t *testing.T) {
				got := cfg.run(t, g, 0, &spec)
				want := cfg.want
				want.simBits = got.simBits
				checkGoldenRun(t, cfg.name, got, want)
				if ff := math.Float64frombits(cfg.want.simBits); math.Float64frombits(got.simBits) < ff {
					t.Errorf("%s: faulted SimTime %v below fault-free %v",
						cfg.name, math.Float64frombits(got.simBits), ff)
				}
				if l := goldenPerRank[spec.CrashRank].Ledger; l[rma.ChargeCrashRestart] == 0 {
					t.Errorf("%s: rank %d booked no restart: the crash never fired", cfg.name, spec.CrashRank)
				}
			})
		}
	}
}

// chaosPoints are TestFaultChaos's (rank, op) crash points per golden
// configuration, named so that adding or deleting a golden row moves no
// other row's points.
var chaosPoints = map[string][][2]int{
	"pull":    {{0, 1}, {3, 2500}},
	"cached":  {{1, 1}, {2, 700}},
	"push":    {{2, 1}, {1, 3000}},
	"jaccard": {{3, 900}},
	"grid":    {{0, 1}},
}

// FuzzFaultSchedule throws arbitrary crash points at the pull
// configuration. A recovered crash never changes results, never finishes
// before the fault-free run, and replays to the same SimTime bits at
// another worker count; a fail-fast one is the *fault.CrashError naming its
// rank and op, or — when the rank never reaches that op — the clean golden
// run. Inputs are folded into valid ranges rather than rejected so every
// fuzz execution exercises the plane.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint8(0), uint32(0), true)
	f.Add(uint8(2), uint32(4095), true)
	f.Add(uint8(3), uint32(99), false)
	f.Add(uint8(1), uint32(60000), false)
	g := gen.MustLoad("fb-sim")
	pull := goldenConfigs[0]
	ff := math.Float64frombits(pull.want.simBits)
	f.Fuzz(func(t *testing.T, rank uint8, op uint32, recover bool) {
		spec := fault.Spec{CrashRank: int(rank % 4), CrashAtOp: 1 + int(op%(1<<16)), CrashRecover: recover}
		if !recover {
			opt := goldenBase()
			opt.Workers, opt.Faults = 1, &spec
			res, err := lcc.Run(g, opt)
			var ce *fault.CrashError
			switch {
			case errors.As(err, &ce):
				if ce.Rank != spec.CrashRank || ce.Op != spec.CrashAtOp {
					t.Errorf("%v: crash at rank %d op %d", spec, ce.Rank, ce.Op)
				}
			case err != nil:
				t.Fatalf("%v: %v, want a *fault.CrashError or none", spec, err)
			default:
				got := goldenRun{math.Float64bits(res.SimTime), lccBits(res.LCC), res.Triangles, res.SumT}
				checkGoldenRun(t, "pull/fuzz/unreached", got, pull.want)
			}
			return
		}
		got := pull.run(t, g, 1, &spec)
		want := pull.want
		want.simBits = got.simBits
		checkGoldenRun(t, "pull/fuzz", got, want)
		if math.Float64frombits(got.simBits) < ff {
			t.Errorf("%v: recovered SimTime %v below fault-free %v", spec, math.Float64frombits(got.simBits), ff)
		}
		if replay := pull.run(t, g, 2, &spec); replay.simBits != got.simBits {
			t.Errorf("SimTime not reproducible: %#x vs %#x on replay (spec %v)",
				got.simBits, replay.simBits, spec)
		}
	})
}
