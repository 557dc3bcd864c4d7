package p2p

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/rma"
)

// faultExchange drives a 3-rank all-to-all over several supersteps under
// the given fault spec and returns the concatenated inbox contents per
// rank (the logical result), aggregate counters, and final SimTime.
func faultExchange(t *testing.T, spec *fault.Spec) ([][]string, Counters, float64) {
	t.Helper()
	w := NewWorldWorkers(3, rma.DefaultCostModel(), 0)
	w.SetFaults(spec)
	got := make([][]string, 3)
	for step := 0; step < 4; step++ {
		w.Superstep(func(r *Rank) {
			for _, m := range r.Inbox() {
				got[r.ID()] = append(got[r.ID()], m.Payload.(string))
			}
			for dst := 0; dst < 3; dst++ {
				if dst != r.ID() {
					msg := fmt.Sprintf("s%d.%d>%d", step, r.ID(), dst)
					r.SendPayload(dst, msg, len(msg))
				}
			}
			r.Compute(50)
		})
	}
	var agg Counters
	for _, r := range w.Ranks() {
		c := r.Counters()
		agg.MsgsSent += c.MsgsSent
		agg.Retransmits += c.Retransmits
		agg.FaultWait += c.FaultWait
	}
	return got, agg, w.MaxClock()
}

// TestDropRetransmitPreservesDelivery: dropped messages are retransmitted
// by the sender — every inbox holds the same messages in the same
// canonical (sender, send-order) fold as the fault-free run, the sender
// pays for the drops, and SimTime lands strictly above fault-free.
func TestDropRetransmitPreservesDelivery(t *testing.T) {
	base, baseCtr, baseSim := faultExchange(t, nil)
	if baseCtr.Retransmits != 0 || baseCtr.FaultWait != 0 {
		t.Fatalf("fault-free run recorded recovery: %+v", baseCtr)
	}
	spec := &fault.Spec{Seed: 11, DropPct: 0.2}
	got, ctr, sim := faultExchange(t, spec)
	for r := range got {
		if len(got[r]) != len(base[r]) {
			t.Fatalf("rank %d received %d messages, want %d", r, len(got[r]), len(base[r]))
		}
		for i := range got[r] {
			if got[r][i] != base[r][i] {
				t.Fatalf("rank %d inbox[%d] = %q, fault-free %q", r, i, got[r][i], base[r][i])
			}
		}
	}
	if ctr.Retransmits == 0 || ctr.FaultWait == 0 {
		t.Fatalf("20%% drops recorded no retransmits: %+v", ctr)
	}
	if ctr.MsgsSent != baseCtr.MsgsSent {
		t.Fatalf("logical send count changed: %d vs %d", ctr.MsgsSent, baseCtr.MsgsSent)
	}
	if sim <= baseSim {
		t.Fatalf("faulted SimTime %v not above fault-free %v", sim, baseSim)
	}
}

// TestDropDeterministicReplay: the drop schedule is a pure function of
// (seed, rank, message index) — same spec, same SimTime bits.
func TestDropDeterministicReplay(t *testing.T) {
	spec := &fault.Spec{Seed: 7, DropPct: 0.15}
	_, _, sim1 := faultExchange(t, spec)
	_, _, sim2 := faultExchange(t, spec)
	if math.Float64bits(sim1) != math.Float64bits(sim2) {
		t.Fatalf("replay diverged: %x vs %x", math.Float64bits(sim1), math.Float64bits(sim2))
	}
	other := &fault.Spec{Seed: 8, DropPct: 0.15}
	_, _, sim3 := faultExchange(t, other)
	if math.Float64bits(sim1) == math.Float64bits(sim3) {
		t.Fatal("different seeds produced identical SimTime — drops ignore the seed")
	}
}
