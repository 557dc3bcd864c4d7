// Tests of TriC's two-sided BSP substrate (world.go): delivery order,
// costs, barriers, the allreduce and the ledger booking.
package tric

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/rma"
	"repro/internal/sched"
)

func TestSuperstepDeliversMessages(t *testing.T) {
	w := newWorld(4, rma.DefaultCostModel(), 0)
	// Everyone sends its id to rank (id+1) mod p.
	w.superstep(func(r *rank) {
		r.sendPayload((r.id+1)%4, []byte{byte(r.id)}, 1)
	})
	w.superstep(func(r *rank) {
		in := r.inbox
		if len(in) != 1 {
			t.Errorf("rank %d inbox size %d, want 1", r.id, len(in))
			return
		}
		want := (r.id + 3) % 4
		if in[0].from != want || int(in[0].payload.([]byte)[0]) != want {
			t.Errorf("rank %d got message %v, want from %d", r.id, in[0], want)
		}
	})
}

func TestInboxOrderDeterministic(t *testing.T) {
	w := newWorld(3, rma.DefaultCostModel(), 0)
	w.superstep(func(r *rank) {
		for dst := 0; dst < 3; dst++ {
			r.sendPayload(dst, fmt.Sprintf("%d.a", r.id), 3)
			r.sendPayload(dst, fmt.Sprintf("%d.b", r.id), 3)
		}
	})
	w.superstep(func(r *rank) {
		in := r.inbox
		if len(in) != 6 {
			t.Fatalf("rank %d inbox size %d, want 6", r.id, len(in))
		}
		want := []string{"0.a", "0.b", "1.a", "1.b", "2.a", "2.b"}
		for i, m := range in {
			if m.payload != want[i] {
				t.Errorf("rank %d inbox[%d] = %q, want %q", r.id, i, m.payload, want[i])
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := rma.DefaultCostModel()
	w := newWorld(3, m, 0)
	w.superstep(func(r *rank) {
		r.compute(1000 * (r.id + 1)) // rank 2 is the straggler
	})
	slowest := 3000 * m.ComputePerOp
	wantMin := slowest + m.BarrierLatency
	for _, r := range w.ranks {
		if got := r.clock.Now(); got < wantMin-1e-9 {
			t.Errorf("rank %d clock = %v, want >= %v after barrier", r.id, got, wantMin)
		}
	}
	// Rank 0 waited longest.
	w0 := w.ranks[0].clock.Ledger()[rma.ChargeBarrierWait]
	w2 := w.ranks[2].clock.Ledger()[rma.ChargeBarrierWait]
	if w0 <= w2 {
		t.Errorf("barrier-wait: rank0 %v should exceed rank2 %v", w0, w2)
	}
}

func TestSendChargesMatchingOverhead(t *testing.T) {
	m := rma.DefaultCostModel()
	w := newWorld(2, m, 0)
	w.superstep(func(r *rank) {
		if r.id == 0 {
			r.sendPayload(1, nil, 100)
		}
	})
	send := w.ranks[0].clock.Ledger()[rma.ChargeSend]
	want := m.SendRecvOverhead + m.RemoteCost(100)
	if math.Abs(send-want) > 1e-9 {
		t.Errorf("send slot = %v, want %v (matching overhead + α + sβ)", send, want)
	}
	// Receiver paid matching + copy.
	if rc := w.ranks[1].clock.Ledger()[rma.ChargeRecv]; rc <= 0 {
		t.Errorf("recv slot = %v, want > 0", rc)
	}
}

func TestSelfSendIsLocalCost(t *testing.T) {
	m := rma.DefaultCostModel()
	w := newWorld(2, m, 0)
	w.superstep(func(r *rank) {
		if r.id == 0 {
			r.sendPayload(0, nil, 10)
		}
	})
	if send := w.ranks[0].clock.Ledger()[rma.ChargeSend]; send >= m.SendRecvOverhead {
		t.Errorf("self-send cost %v should be below matching overhead %v", send, m.SendRecvOverhead)
	}
}

func TestAllreduceSum(t *testing.T) {
	w := newWorld(4, rma.DefaultCostModel(), 0)
	got := w.allreduceSum([]int64{1, 2, 3, 4})
	if got != 10 {
		t.Errorf("allreduceSum = %d, want 10", got)
	}
	if w.maxClock() <= 0 {
		t.Error("allreduceSum charged no time")
	}
	// All clocks equal after an allreduce.
	c0 := w.ranks[0].clock.Now()
	for _, r := range w.ranks {
		if r.clock.Now() != c0 {
			t.Errorf("clocks diverge after allreduce")
		}
	}
}

func TestAllreduceValidatesLength(t *testing.T) {
	w := newWorld(2, rma.DefaultCostModel(), 0)
	defer func() {
		if recover() == nil {
			t.Error("allreduceSum accepted wrong-length input")
		}
	}()
	w.allreduceSum([]int64{1})
}

// TestSendValidatesRank: a send to an invalid rank panics in its body,
// which ends the run — err holds the *sched.PanicError and later
// supersteps are skipped.
func TestSendValidatesRank(t *testing.T) {
	w := newWorld(2, rma.DefaultCostModel(), 0)
	w.superstep(func(r *rank) { r.sendPayload(7, nil, 0) })
	var pe *sched.PanicError
	if !errors.As(w.err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", w.err)
	}
	ran := false
	w.superstep(func(r *rank) { ran = true })
	if ran || w.steps != 0 {
		t.Errorf("superstep after a failed one ran (ran=%v, steps=%d)", ran, w.steps)
	}
}

func TestStepsCount(t *testing.T) {
	w := newWorld(2, rma.DefaultCostModel(), 0)
	w.superstep(func(r *rank) {})
	w.superstep(func(r *rank) {})
	if w.steps != 2 {
		t.Errorf("steps = %d, want 2", w.steps)
	}
}

func TestManySuperstepsAccumulateBarrierCost(t *testing.T) {
	// Even with zero compute and no messages, every superstep costs at
	// least the barrier latency: the synchronization tax TriC pays.
	m := rma.DefaultCostModel()
	w := newWorld(4, m, 0)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		w.superstep(func(r *rank) {})
	}
	if got, want := w.maxClock(), rounds*m.BarrierLatency; math.Abs(got-want) > 1e-6 {
		t.Errorf("maxClock = %v, want %v", got, want)
	}
}

// TestLedgerBooksEveryMove: every clock move of a world rank is booked in its
// ledger, so per rank the slots sum to the clock within 2 ulp, and the
// slots' bits are the same at one worker and at four. Ranks do unequal work,
// so each barrier books a different wait on each.
func TestLedgerBooksEveryMove(t *testing.T) {
	run := func(workers int) []*rank {
		w := newWorld(4, rma.DefaultCostModel(), workers)
		for s := 0; s < 5; s++ {
			w.superstep(func(r *rank) {
				r.compute(1000 * (r.id + 1))
				r.advanceBy(500)
				r.sendPayload((r.id+1)%4, nil, 4<<10)
			})
		}
		w.allreduceSum(make([]int64, 4))
		return w.ranks
	}
	one, four := run(1), run(4)
	for i, r := range one {
		l := r.clock.Ledger()
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
		l4 := four[i].clock.Ledger()
		for k := range l {
			if math.Float64bits(l4[k]) != math.Float64bits(l[k]) {
				t.Errorf("rank %d: %v slot %v at workers=4, %v at workers=1", i, rma.ChargeKind(k), l4[k], l[k])
			}
		}
	}
}
