// Ledger laws: every movement of a rank's simulated clock is booked in one
// slot of its rma.Ledger (DESIGN.md §6), on the rma substrate and on TriC's
// two-sided one. Over the five golden configurations, fault-free and under
// fault scenarios, and over the TriC baselines (TriC, TriC-Buffered), per
// rank:
//
//  1. the slots sum to the clock within 2 ulp (float sums regroup, so not
//     exactly);
//  2. the get-remote slot is exactly 0: a remote get moves the clock only
//     at its Wait, booked as get-wait;
//  3. every slot's bits are the same at workers 1, 4 and 8;
//  4. a fault-free run books nothing in the six fault-plane slots.
//
// And the §IV split the ledger exists to show: on the uncached engine
// (pull) rank 0 spends at least 90 % of its clock waiting on gets, and the
// caches (cached) lower that share; TriC's barriers cost it a larger share
// of its time than the asynchronous pull engine's (§IV-B).
package repro_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/rma"
	"repro/internal/tric"
)

func TestLedgerLaws(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	var specs []*fault.Spec
	for i := range faultScenarios {
		specs = append(specs, &faultScenarios[i].spec)
	}
	getWait := map[string]float64{}
	for _, spec := range append([]*fault.Spec{nil}, specs...) {
		for _, cfg := range goldenConfigs {
			name := fmt.Sprintf("%s/faults=%v", cfg.name, spec != nil)
			ls, clocks := checkLedgerLaws(t, name, spec == nil, func(workers int) ([]rma.Ledger, []float64) {
				goldenPerRank = nil
				cfg.run(t, g, workers, spec)
				return rankLedgers(goldenPerRank)
			})
			if spec == nil && (cfg.name == "pull" || cfg.name == "cached") {
				getWait[cfg.name] = ls[0][rma.ChargeGetWait] / clocks[0]
				t.Logf("time split, %s, rank 0: %s", cfg.name, ledgerShares(ls[0], clocks[0]))
			}
		}
	}
	for _, b := range ledgerBaselines(g) {
		checkLedgerLaws(t, b.name, true, b.run)
	}
	if getWait["pull"] < 0.9 {
		t.Errorf("pull: rank 0 waits on gets for %.1f %% of its clock, want ≥ 90 %%", 100*getWait["pull"])
	}
	if getWait["cached"] >= getWait["pull"] {
		t.Errorf("cached: rank 0's get-wait share %.3f not below pull's %.3f", getWait["cached"], getWait["pull"])
	}
}

// TestLedgerSyncShare reads §IV-B's case against TriC off the ledgers: on
// fb-sim at 4 ranks, TriC spends a larger share of its ranks' summed clocks
// blocked at barriers than the asynchronous pull engine does. It logs the
// baselines' time split over all ranks (CI's `time split` step).
func TestLedgerSyncShare(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	share := map[string]float64{}
	pull := ledgerRun{"pull", func(workers int) ([]rma.Ledger, []float64) {
		opt := goldenBase()
		opt.Workers = workers
		res, err := lcc.Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rankLedgers(res.PerRank)
	}}
	for _, b := range append(ledgerBaselines(g), pull) {
		var sum rma.Ledger
		var clock float64
		ls, clocks := b.run(0)
		for r, l := range ls {
			for k, d := range l {
				sum[k] += d
			}
			clock += clocks[r]
		}
		share[b.name] = sum[rma.ChargeBarrierWait] / clock
		if b.name != "pull" {
			t.Logf("time split, %s, all ranks: %s", b.name, ledgerShares(sum, clock))
		}
	}
	if share["tric"] <= share["pull"] {
		t.Errorf("tric: barrier-wait share %.4f not above pull's %.4f", share["tric"], share["pull"])
	}
}

// ledgerRun runs one engine at a worker count and returns each rank's
// ledger and clock.
type ledgerRun struct {
	name string
	run  func(workers int) ([]rma.Ledger, []float64)
}

// ledgerBaselines are the TriC baselines on g at 4 ranks, with the options
// TestBaselineSimTimeBits pins. After their closing allreduce every rank's
// clock is the run's SimTime.
func ledgerBaselines(g graph.Store) []ledgerRun {
	atSimTime := func(ls []rma.Ledger, sim float64) ([]rma.Ledger, []float64) {
		clocks := make([]float64, len(ls))
		for i := range clocks {
			clocks[i] = sim
		}
		return ls, clocks
	}
	tricRun := func(opt tric.Options) func(int) ([]rma.Ledger, []float64) {
		return func(workers int) ([]rma.Ledger, []float64) {
			opt.Ranks, opt.Workers, opt.Method = 4, workers, intersect.MethodHybrid
			res := tric.MustRun(g, opt)
			return atSimTime(res.Ledgers, res.SimTime)
		}
	}
	return []ledgerRun{
		{"tric", tricRun(tric.Options{})},
		{"tric-buffered", tricRun(tric.Options{Buffered: true, BufferBytes: 256 << 10})},
	}
}

// rankLedgers splits an rma engine's per-rank stats into ledgers and clocks.
func rankLedgers(stats []lcc.RankStats) ([]rma.Ledger, []float64) {
	var ls []rma.Ledger
	var clocks []float64
	for _, s := range stats {
		ls = append(ls, s.Ledger)
		clocks = append(clocks, s.SimTime)
	}
	return ls, clocks
}

// checkLedgerLaws runs an engine at workers 1, 4 and 8, asserts laws 1–4 on
// every rank and returns the workers=1 ledgers and clocks.
func checkLedgerLaws(t *testing.T, name string, faultFree bool, run func(workers int) ([]rma.Ledger, []float64)) ([]rma.Ledger, []float64) {
	t.Helper()
	var ref []rma.Ledger
	var refClocks []float64
	for _, wk := range []int{1, 4, 8} {
		ls, clocks := run(wk)
		if len(ls) == 0 {
			t.Fatalf("%s/workers=%d: the run reported no ledgers", name, wk)
		}
		for r, l := range ls {
			rname := fmt.Sprintf("%s/workers=%d/rank %d", name, wk, r)
			checkLedger(t, rname, l, clocks[r], faultFree)
			if ref == nil {
				continue
			}
			for k := range l {
				if math.Float64bits(l[k]) != math.Float64bits(ref[r][k]) {
					t.Errorf("%s: %v slot %v, %v at workers=1", rname, rma.ChargeKind(k), l[k], ref[r][k])
				}
			}
		}
		if ref == nil {
			ref, refClocks = ls, clocks
		}
	}
	return ref, refClocks
}

// checkLedger asserts laws 1, 2 and 4 on one rank's ledger.
func checkLedger(t *testing.T, name string, l rma.Ledger, clock float64, faultFree bool) {
	t.Helper()
	var sum float64
	for _, d := range l {
		sum += d
	}
	if ulp := math.Nextafter(clock, math.Inf(1)) - clock; math.Abs(sum-clock) > 2*ulp {
		t.Errorf("%s: slots sum to %v, clock %v (%.1f ulp apart)", name, sum, clock, math.Abs(sum-clock)/ulp)
	}
	if l[rma.ChargeGetRemote] != 0 {
		t.Errorf("%s: get-remote slot %v, want 0", name, l[rma.ChargeGetRemote])
	}
	for _, k := range []rma.ChargeKind{rma.ChargeCrashRestart, rma.ChargeCrashRedo} {
		if faultFree && l[k] != 0 {
			t.Errorf("%s: fault-free run booked %v ns as %v", name, l[k], k)
		}
	}
}

// ledgerShares renders a ledger's nonzero slots as shares of the clock.
func ledgerShares(l rma.Ledger, clock float64) string {
	var parts []string
	for k, d := range l {
		if d != 0 {
			parts = append(parts, fmt.Sprintf("%v %.1f %%", rma.ChargeKind(k), 100*d/clock))
		}
	}
	return strings.Join(parts, ", ")
}
