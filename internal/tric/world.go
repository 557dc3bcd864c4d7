package tric

import (
	"context"
	"fmt"

	"repro/internal/rma"
	"repro/internal/sched"
)

// TriC's substrate: two-sided MPI messaging organized as bulk-synchronous
// supersteps. Its blocking collective exchanges carry the synchronization
// overhead the paper's asynchronous RMA design removes (§I, §IV-B).
//
// Cost model (shared with internal/rma): a message of s bytes costs the
// sender SendRecvOverhead + α + s·β (two-sided adds matching overhead over
// RMA, §II-E) and the receiver a matching overhead plus a local copy. Every
// exchange ends with a barrier: all clocks jump to the global maximum plus
// BarrierLatency. The simulated time of a run is therefore dominated by the
// slowest rank of every superstep — the BSP straggler effect. Each move is
// booked in the rank's rma.Ledger: work as ops or ns, messages as send and
// recv, barrier jumps (exchange, allreduceSum) as barrier-wait.

// message is a delivered two-sided message. Payload travels by reference —
// the simulation runs in one address space, so copying real bytes would
// only burn wall-clock time — while size is the modeled wire size in bytes
// that all costs are charged from.
type message struct {
	from    int
	size    int
	payload interface{}
}

// rank is one process of the BSP world, used only inside world.superstep
// bodies.
type rank struct {
	id    int
	world *world
	clock rma.Clock // the rank's time, and in its ledger where it went

	outbox [][]message // staged sends, indexed by destination
	inbox  []message   // messages delivered by the previous exchange, in (sender, send-order) order
}

// compute charges ops × κ of modeled computation.
func (r *rank) compute(ops int) {
	r.clock.Advance(rma.ChargeOps, float64(ops)*r.world.model.ComputePerOp)
}

// advanceBy charges an arbitrary modeled duration in ns (per-query
// protocol processing that is not proportional to intersection ops).
func (r *rank) advanceBy(ns float64) {
	r.clock.Advance(rma.ChargeNS, ns)
}

// sendPayload stages a payload for dst with an explicit modeled wire size;
// it is delivered by the next exchange. Candidate lists are charged in full
// without materializing the bytes. The send cost (matching overhead + α +
// s·β) is charged immediately, as with a blocking MPI_Send in rendezvous
// mode.
func (r *rank) sendPayload(dst int, payload interface{}, size int) {
	if dst < 0 || dst >= r.world.p {
		panic(fmt.Sprintf("tric: rank %d: Send to invalid rank %d", r.id, dst))
	}
	if size < 0 {
		panic(fmt.Sprintf("tric: rank %d: negative message size %d", r.id, size))
	}
	m := r.world.model
	cost := m.SendRecvOverhead + m.RemoteCost(size)
	if dst == r.id {
		cost = m.LocalCost(size)
	}
	r.clock.Advance(rma.ChargeSend, cost)
	r.outbox[dst] = append(r.outbox[dst], message{from: r.id, size: size, payload: payload})
}

// world is a BSP world of p ranks.
type world struct {
	p     int
	model rma.CostModel
	pool  *sched.Pool
	ranks []*rank
	steps int   // supersteps and allreduces executed so far
	err   error // the first failed superstep's error; later steps are skipped
}

// newWorld creates a BSP world of p ≥ 1 ranks sharing the given cost
// model, whose superstep bodies execute on at most workers concurrent
// goroutines; workers <= 0 selects GOMAXPROCS. Supersteps are
// barrier-phased — ranks interact only through the host-serial exchange
// between steps — so results are bit-identical at every worker count
// provided bodies keep their writes rank-disjoint (the contract superstep
// documents).
func newWorld(p int, model rma.CostModel, workers int) *world {
	w := &world{p: p, model: model, pool: sched.New(workers)}
	w.ranks = make([]*rank, p)
	for i := range w.ranks {
		w.ranks[i] = &rank{id: i, world: w, outbox: make([][]message, p)}
	}
	return w
}

// superstep runs body on every rank — concurrently, bounded by the
// world's worker count — then performs the all-to-all exchange and
// barrier. Ranks interact only at the exchange boundary, which runs
// host-serially in deterministic (sender, send-order) order, so the
// simulation stays bit-identical at any worker count as long as bodies
// write only rank-disjoint state: a body may touch its own rank's
// staging (outbox, per-rank slices indexed by r.id, vertices its rank
// owns) and read shared immutable data, nothing else.
//
// A superstep whose body panics ends the run: no exchange, no later step,
// and err holds the *sched.PanicError.
func (w *world) superstep(body func(r *rank)) {
	if w.err == nil {
		w.err = w.pool.RunCtx(context.Background(), w.p, func(i int) { body(w.ranks[i]) })
	}
	if w.err == nil {
		w.exchange()
	}
}

// exchange delivers all staged messages and synchronizes: every clock jumps
// to the global maximum plus BarrierLatency, and receivers are charged the
// per-message matching overhead plus a local copy of the payload. This is
// the blocking all-to-all step whose cost TriC pays every round.
func (w *world) exchange() {
	w.steps++
	w.barrier(w.maxClock() + w.model.BarrierLatency)
	// Deliver and charge receive costs. Outbox backing arrays are kept
	// for reuse: the message values were copied into the inbox, so the
	// staging slots can be overwritten by the next superstep's sends
	// without a fresh allocation per (src, dst) pair per round.
	for _, dst := range w.ranks {
		dst.inbox = dst.inbox[:0]
		for src := 0; src < w.p; src++ {
			msgs := w.ranks[src].outbox[dst.id]
			for i, m := range msgs {
				cost := w.model.SendRecvOverhead + w.model.LocalCost(m.size)
				if src == dst.id {
					cost = w.model.LocalCost(m.size)
				}
				dst.clock.Advance(rma.ChargeRecv, cost)
				dst.inbox = append(dst.inbox, m)
				msgs[i].payload = nil // drop the staging reference
			}
			w.ranks[src].outbox[dst.id] = msgs[:0]
		}
	}
}

// allreduceSum performs a sum all-reduction over per-rank int64 values,
// charging a log₂(p)-depth reduction tree of 8-byte messages, and returns
// the global sum (identical on all ranks, as in MPI_Allreduce).
func (w *world) allreduceSum(vals []int64) int64 {
	if len(vals) != w.p {
		panic(fmt.Sprintf("tric: allreduceSum got %d values for %d ranks", len(vals), w.p))
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
	w.barrier(w.maxClock() + (cost + w.model.BarrierLatency))
	w.steps++
	return sum
}

// barrier moves every rank's clock to t, at or past the slowest rank's,
// booking each rank's jump as barrier-wait.
func (w *world) barrier(t float64) {
	for _, r := range w.ranks {
		r.clock.AdvanceTo(rma.ChargeBarrierWait, t)
	}
}

// maxClock returns the simulated job time: the slowest rank's clock.
func (w *world) maxClock() float64 {
	max := 0.0
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > max {
			max = t
		}
	}
	return max
}
