// Package p2p simulates two-sided MPI messaging organized as bulk-
// synchronous supersteps. It is the substrate for the TriC baseline
// (internal/tric): TriC follows a query–response, all-to-all pattern with
// blocking collective exchanges, whose synchronization overhead is exactly
// what the paper's asynchronous RMA design removes (§I, §IV-B).
//
// Cost model (shared with internal/rma): a message of s bytes costs the
// sender SendRecvOverhead + α + s·β (two-sided adds matching overhead over
// RMA, §II-E) and the receiver a matching overhead plus a local copy. Every
// exchange ends with a barrier: all clocks jump to the global maximum plus
// BarrierLatency. The simulated time of a run is therefore dominated by the
// slowest rank of every superstep — the BSP straggler effect. Each move is
// booked in the rank's rma.Ledger: work as ops or ns, messages as send and
// recv, barrier jumps (exchange, AllreduceSum) as barrier-wait.
package p2p

import (
	"context"
	"fmt"

	"repro/internal/rma"
	"repro/internal/sched"
)

// Message is a delivered two-sided message. Payload travels by reference —
// the simulation runs in one address space, so copying real bytes would
// only burn wall-clock time — while Size is the modeled wire size in bytes
// that all costs are charged from.
type Message struct {
	From    int
	Size    int
	Payload interface{}
}

// Counters aggregates a rank's two-sided messaging; its time is its Ledger.
type Counters struct {
	MsgsSent  int64
	BytesSent int64
}

// Rank is one process of the BSP world. Ranks must only be used inside
// World.Superstep bodies.
type Rank struct {
	id    int
	world *World
	clock rma.Clock // the rank's time, and in its ledger where it went
	ctr   Counters

	outbox [][]Message // staged sends, indexed by destination
	inbox  []Message   // messages delivered by the previous exchange
}

// ID returns the rank id.
func (r *Rank) ID() int { return r.id }

// Counters returns a snapshot of the rank's counters.
func (r *Rank) Counters() Counters { return r.ctr }

// Ledger returns a snapshot of where the rank's simulated time went.
func (r *Rank) Ledger() rma.Ledger { return r.clock.Ledger() }

// Compute charges ops × κ of modeled computation.
func (r *Rank) Compute(ops int) {
	r.clock.Advance(rma.ChargeOps, float64(ops)*r.world.model.ComputePerOp)
}

// AdvanceBy charges an arbitrary modeled duration in ns (e.g. per-query
// protocol processing that is not proportional to intersection ops).
func (r *Rank) AdvanceBy(ns float64) {
	r.clock.Advance(rma.ChargeNS, ns)
}

// SendPayload stages a payload for dst with an explicit modeled wire size;
// it is delivered by the next exchange. Callers shipping large derived data
// (e.g. TriC's candidate lists) charge the full cost without materializing
// the bytes. The send cost (matching overhead + α + s·β) is charged
// immediately, as with a blocking MPI_Send in rendezvous mode.
func (r *Rank) SendPayload(dst int, payload interface{}, size int) {
	if dst < 0 || dst >= r.world.p {
		panic(fmt.Sprintf("p2p: rank %d: Send to invalid rank %d", r.id, dst))
	}
	if size < 0 {
		panic(fmt.Sprintf("p2p: rank %d: negative message size %d", r.id, size))
	}
	m := r.world.model
	cost := m.SendRecvOverhead + m.RemoteCost(size)
	if dst == r.id {
		cost = m.LocalCost(size)
	}
	r.clock.Advance(rma.ChargeSend, cost)
	r.ctr.MsgsSent++
	r.ctr.BytesSent += int64(size)
	r.outbox[dst] = append(r.outbox[dst], Message{From: r.id, Size: size, Payload: payload})
}

// Inbox returns the messages delivered to this rank by the last exchange,
// in deterministic (sender-rank, send-order) order.
func (r *Rank) Inbox() []Message { return r.inbox }

// World is a BSP world of p ranks.
type World struct {
	p     int
	model rma.CostModel
	pool  *sched.Pool
	ranks []*Rank
	steps int
	err   error // the first failed superstep's error; later steps are skipped
}

// NewWorldWorkers creates a BSP world of p ranks sharing the given cost
// model, whose superstep bodies execute on at most workers concurrent
// goroutines; workers <= 0 selects GOMAXPROCS.
// Supersteps are barrier-phased — ranks interact only through the
// host-serial exchange between steps — so results are bit-identical at
// every worker count provided bodies keep their writes rank-disjoint (the
// contract Superstep documents).
func NewWorldWorkers(p int, model rma.CostModel, workers int) *World {
	if p < 1 {
		panic(fmt.Sprintf("p2p: need at least one rank, got %d", p))
	}
	w := &World{p: p, model: model, pool: sched.New(workers)}
	w.ranks = make([]*Rank, p)
	for i := range w.ranks {
		w.ranks[i] = &Rank{id: i, world: w, outbox: make([][]Message, p)}
		w.ranks[i].clock.SetNoise(model.Noise, i)
	}
	return w
}

// Ranks returns the rank handles (for reading clocks/counters after a run).
func (w *World) Ranks() []*Rank { return w.ranks }

// Steps returns the number of supersteps executed so far.
func (w *World) Steps() int { return w.steps }

// Superstep runs body on every rank — concurrently, bounded by the
// world's worker count — then performs the all-to-all exchange and
// barrier. Ranks interact only at the exchange boundary, which runs
// host-serially in deterministic (sender, send-order) order, so the
// simulation stays bit-identical at any worker count as long as bodies
// write only rank-disjoint state: a body may touch its own rank's
// staging (outbox, per-rank slices indexed by r.ID(), vertices its rank
// owns) and read shared immutable data, nothing else.
//
// A superstep whose body panics ends the run: no exchange, no later step,
// and Err reports the *sched.PanicError.
func (w *World) Superstep(body func(r *Rank)) {
	if w.err == nil {
		w.err = w.pool.RunCtx(context.Background(), w.p, func(i int) { body(w.ranks[i]) })
	}
	if w.err == nil {
		w.exchange()
	}
}

// Err returns the error that ended the run early, nil if every superstep
// completed. A world with an error holds no valid result.
func (w *World) Err() error { return w.err }

// exchange delivers all staged messages and synchronizes: every clock jumps
// to the global maximum plus BarrierLatency, and receivers are charged the
// per-message matching overhead plus a local copy of the payload. This is
// the blocking all-to-all step whose cost TriC pays every round.
func (w *World) exchange() {
	w.steps++
	w.barrier(w.MaxClock() + w.model.BarrierLatency)
	// Deliver and charge receive costs. Outbox backing arrays are kept
	// for reuse: the Message values were copied into the inbox, so the
	// staging slots can be overwritten by the next superstep's sends
	// without a fresh allocation per (src, dst) pair per round.
	for _, dst := range w.ranks {
		dst.inbox = dst.inbox[:0]
		for src := 0; src < w.p; src++ {
			msgs := w.ranks[src].outbox[dst.id]
			for i, m := range msgs {
				cost := w.model.SendRecvOverhead + w.model.LocalCost(m.Size)
				if src == dst.id {
					cost = w.model.LocalCost(m.Size)
				}
				dst.clock.Advance(rma.ChargeRecv, cost)
				dst.inbox = append(dst.inbox, m)
				msgs[i].Payload = nil // drop the staging reference
			}
			w.ranks[src].outbox[dst.id] = msgs[:0]
		}
	}
}

// AllreduceSum performs a sum all-reduction over per-rank int64 values,
// charging a log₂(p)-depth reduction tree of 8-byte messages, and returns
// the global sum (identical on all ranks, as in MPI_Allreduce).
func (w *World) AllreduceSum(vals []int64) int64 {
	if len(vals) != w.p {
		panic(fmt.Sprintf("p2p: AllreduceSum got %d values for %d ranks", len(vals), w.p))
	}
	sum := int64(0)
	for _, v := range vals {
		sum += v
	}
	depth := 0
	for 1<<depth < w.p {
		depth++
	}
	cost := float64(depth) * (w.model.SendRecvOverhead + w.model.RemoteCost(8))
	w.barrier(w.MaxClock() + (cost + w.model.BarrierLatency))
	w.steps++
	return sum
}

// barrier moves every rank's clock to t, at or past the slowest rank's,
// booking each rank's jump as barrier-wait.
func (w *World) barrier(t float64) {
	for _, r := range w.ranks {
		r.clock.AdvanceTo(rma.ChargeBarrierWait, t)
	}
}

// MaxClock returns the simulated job time: the slowest rank's clock.
func (w *World) MaxClock() float64 {
	max := 0.0
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > max {
			max = t
		}
	}
	return max
}
