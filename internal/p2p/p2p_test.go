package p2p

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/rma"
	"repro/internal/sched"
)

func TestSuperstepDeliversMessages(t *testing.T) {
	w := NewWorldWorkers(4, rma.DefaultCostModel(), 0)
	// Everyone sends its id to rank (id+1) mod p.
	w.Superstep(func(r *Rank) {
		r.SendPayload((r.ID()+1)%4, []byte{byte(r.ID())}, 1)
	})
	w.Superstep(func(r *Rank) {
		in := r.Inbox()
		if len(in) != 1 {
			t.Errorf("rank %d inbox size %d, want 1", r.ID(), len(in))
			return
		}
		want := (r.ID() + 3) % 4
		if in[0].From != want || int(in[0].Payload.([]byte)[0]) != want {
			t.Errorf("rank %d got message %v, want from %d", r.ID(), in[0], want)
		}
	})
}

func TestInboxOrderDeterministic(t *testing.T) {
	w := NewWorldWorkers(3, rma.DefaultCostModel(), 0)
	w.Superstep(func(r *Rank) {
		for dst := 0; dst < 3; dst++ {
			r.SendPayload(dst, fmt.Sprintf("%d.a", r.ID()), 3)
			r.SendPayload(dst, fmt.Sprintf("%d.b", r.ID()), 3)
		}
	})
	w.Superstep(func(r *Rank) {
		in := r.Inbox()
		if len(in) != 6 {
			t.Fatalf("rank %d inbox size %d, want 6", r.ID(), len(in))
		}
		want := []string{"0.a", "0.b", "1.a", "1.b", "2.a", "2.b"}
		for i, m := range in {
			if m.Payload != want[i] {
				t.Errorf("rank %d inbox[%d] = %q, want %q", r.ID(), i, m.Payload, want[i])
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := rma.DefaultCostModel()
	w := NewWorldWorkers(3, m, 0)
	w.Superstep(func(r *Rank) {
		r.Compute(1000 * (r.ID() + 1)) // rank 2 is the straggler
	})
	slowest := 3000 * m.ComputePerOp
	wantMin := slowest + m.BarrierLatency
	for _, r := range w.Ranks() {
		if got := r.clock.Now(); got < wantMin-1e-9 {
			t.Errorf("rank %d clock = %v, want >= %v after barrier", r.ID(), got, wantMin)
		}
	}
	// Rank 0 waited longest.
	w0 := w.Ranks()[0].Ledger()[rma.ChargeBarrierWait]
	w2 := w.Ranks()[2].Ledger()[rma.ChargeBarrierWait]
	if w0 <= w2 {
		t.Errorf("barrier-wait: rank0 %v should exceed rank2 %v", w0, w2)
	}
}

func TestSendChargesMatchingOverhead(t *testing.T) {
	m := rma.DefaultCostModel()
	w := NewWorldWorkers(2, m, 0)
	w.Superstep(func(r *Rank) {
		if r.ID() == 0 {
			r.SendPayload(1, nil, 100)
		}
	})
	send := w.Ranks()[0].Ledger()[rma.ChargeSend]
	want := m.SendRecvOverhead + m.RemoteCost(100)
	if math.Abs(send-want) > 1e-9 {
		t.Errorf("send slot = %v, want %v (matching overhead + α + sβ)", send, want)
	}
	// Receiver paid matching + copy.
	if rc := w.Ranks()[1].Ledger()[rma.ChargeRecv]; rc <= 0 {
		t.Errorf("recv slot = %v, want > 0", rc)
	}
}

func TestSelfSendIsLocalCost(t *testing.T) {
	m := rma.DefaultCostModel()
	w := NewWorldWorkers(2, m, 0)
	w.Superstep(func(r *Rank) {
		if r.ID() == 0 {
			r.SendPayload(0, nil, 10)
		}
	})
	if send := w.Ranks()[0].Ledger()[rma.ChargeSend]; send >= m.SendRecvOverhead {
		t.Errorf("self-send cost %v should be below matching overhead %v", send, m.SendRecvOverhead)
	}
}

func TestAllreduceSum(t *testing.T) {
	w := NewWorldWorkers(4, rma.DefaultCostModel(), 0)
	got := w.AllreduceSum([]int64{1, 2, 3, 4})
	if got != 10 {
		t.Errorf("AllreduceSum = %d, want 10", got)
	}
	if w.MaxClock() <= 0 {
		t.Error("AllreduceSum charged no time")
	}
	// All clocks equal after an allreduce.
	c0 := w.Ranks()[0].clock.Now()
	for _, r := range w.Ranks() {
		if r.clock.Now() != c0 {
			t.Errorf("clocks diverge after allreduce")
		}
	}
}

func TestAllreduceValidatesLength(t *testing.T) {
	w := NewWorldWorkers(2, rma.DefaultCostModel(), 0)
	defer func() {
		if recover() == nil {
			t.Error("AllreduceSum accepted wrong-length input")
		}
	}()
	w.AllreduceSum([]int64{1})
}

// TestSendValidatesRank: a send to an invalid rank panics in its body,
// which ends the run — Err reports the *sched.PanicError and later
// supersteps are skipped.
func TestSendValidatesRank(t *testing.T) {
	w := NewWorldWorkers(2, rma.DefaultCostModel(), 0)
	w.Superstep(func(r *Rank) { r.SendPayload(7, nil, 0) })
	var pe *sched.PanicError
	if !errors.As(w.Err(), &pe) {
		t.Fatalf("Err = %v, want *sched.PanicError", w.Err())
	}
	ran := false
	w.Superstep(func(r *Rank) { ran = true })
	if ran || w.Steps() != 0 {
		t.Errorf("superstep after a failed one ran (ran=%v, steps=%d)", ran, w.Steps())
	}
}

func TestStepsCount(t *testing.T) {
	w := NewWorldWorkers(2, rma.DefaultCostModel(), 0)
	w.Superstep(func(r *Rank) {})
	w.Superstep(func(r *Rank) {})
	if w.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", w.Steps())
	}
}

func TestManySuperstepsAccumulateBarrierCost(t *testing.T) {
	// Even with zero compute and no messages, every superstep costs at
	// least the barrier latency: the synchronization tax TriC pays.
	m := rma.DefaultCostModel()
	w := NewWorldWorkers(4, m, 0)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		w.Superstep(func(r *Rank) {})
	}
	if got, want := w.MaxClock(), rounds*m.BarrierLatency; math.Abs(got-want) > 1e-6 {
		t.Errorf("MaxClock = %v, want %v", got, want)
	}
}
