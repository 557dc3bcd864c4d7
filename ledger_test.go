// Ledger laws: every movement of a rank's simulated clock is booked in one
// slot of its rma.Ledger (DESIGN.md §6). Over the seven lcc golden
// configurations, fault-free and under fault scenarios, per rank:
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
// caches (cached) lower that share.
package repro_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/rma"
)

func TestLedgerLaws(t *testing.T) {
	g := gen.MustLoad("fb-sim")
	var specs []*fault.Spec
	for i := range faultScenarios {
		if n := faultScenarios[i].name; n == "chaos" || n == "crash-recover" {
			specs = append(specs, &faultScenarios[i].spec)
		}
	}
	getWait := map[string]float64{}
	for _, spec := range append([]*fault.Spec{nil}, specs...) {
		for _, cfg := range goldenConfigs {
			var ref []rma.Ledger
			for _, wk := range []int{1, 4, 8} {
				goldenPerRank = nil
				cfg.run(t, g, wk, spec)
				if goldenPerRank == nil {
					break // not an lcc engine: no ledger
				}
				name := fmt.Sprintf("%s/faults=%v/workers=%d", cfg.name, spec != nil, wk)
				for r, s := range goldenPerRank {
					checkLedger(t, fmt.Sprintf("%s/rank %d", name, r), s.Ledger, s.SimTime, spec == nil)
					if ref == nil {
						continue
					}
					for k := range s.Ledger {
						if math.Float64bits(s.Ledger[k]) != math.Float64bits(ref[r][k]) {
							t.Errorf("%s/rank %d: %v slot %v, %v at workers=1",
								name, r, rma.ChargeKind(k), s.Ledger[k], ref[r][k])
						}
					}
				}
				if ref == nil {
					for _, s := range goldenPerRank {
						ref = append(ref, s.Ledger)
					}
				}
			}
			if spec == nil && (cfg.name == "pull" || cfg.name == "cached") {
				s := goldenPerRank[0]
				getWait[cfg.name] = s.Ledger[rma.ChargeGetWait] / s.SimTime
				t.Logf("time split, %s, rank 0: %s", cfg.name, ledgerShares(s.Ledger, s.SimTime))
			}
		}
	}
	if getWait["pull"] < 0.9 {
		t.Errorf("pull: rank 0 waits on gets for %.1f %% of its clock, want ≥ 90 %%", 100*getWait["pull"])
	}
	if getWait["cached"] >= getWait["pull"] {
		t.Errorf("cached: rank 0's get-wait share %.3f not below pull's %.3f", getWait["cached"], getWait["pull"])
	}
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
	for k := rma.ChargeRetryBackoff; faultFree && k <= rma.ChargeCrashRedo; k++ {
		if l[k] != 0 {
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
