// Package p2p simulates two-sided MPI messaging organized as bulk-
// synchronous supersteps. It is the substrate for the TriC baseline
// (internal/tric): TriC follows a query–response, all-to-all pattern with
// blocking collective exchanges, whose synchronization overhead is exactly
// what the paper's asynchronous RMA design removes (§I, §IV-B).
//
// Cost model (shared with internal/rma): a message of s bytes costs the
// sender SendRecvOverhead + α + s·β (two-sided adds matching overhead over
// RMA, §II-E) and the receiver a matching overhead plus a local copy. Every
// Exchange ends with a barrier: all clocks jump to the global maximum plus
// BarrierLatency. The simulated time of a run is therefore dominated by the
// slowest rank of every superstep — the BSP straggler effect.
package p2p

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/rma"
	"repro/internal/sched"
)

// Message is a delivered two-sided message. Payload travels by reference —
// the simulation runs in one address space, so copying real bytes would
// only burn wall-clock time — while Size is the modeled wire size in bytes
// that all costs are charged from. Data is a convenience accessor for
// []byte payloads.
type Message struct {
	From    int
	Size    int
	Payload interface{}
}

// Data returns the payload as []byte; it panics for non-byte payloads.
func (m Message) Data() []byte { return m.Payload.([]byte) }

// Counters aggregates a rank's two-sided communication activity.
type Counters struct {
	MsgsSent    int64
	BytesSent   int64
	SendCost    float64 // ns charged for sends
	RecvCost    float64 // ns charged for receives
	BarrierWait float64 // ns spent waiting at barriers for stragglers
	ComputeTime float64
	Retransmits int64   // messages dropped in flight and resent (fault plane)
	FaultWait   float64 // ns lost to ack timeouts and retransmissions
}

// Rank is one process of the BSP world. Ranks must only be used inside
// World.Superstep bodies.
type Rank struct {
	id    int
	world *World
	clock rma.Clock
	ctr   Counters

	outbox [][]Message // staged sends, indexed by destination
	inbox  []Message   // messages delivered by the previous exchange

	// faults is the rank's bound fault schedule (World.SetFaults); nil —
	// the default — costs one nil check per send.
	faults *fault.Sched
}

// ID returns the rank id.
func (r *Rank) ID() int { return r.id }

// Clock returns the rank's simulated clock.
func (r *Rank) Clock() *rma.Clock { return &r.clock }

// Counters returns a snapshot of the rank's counters.
func (r *Rank) Counters() Counters { return r.ctr }

// Compute charges ops × κ of modeled computation.
func (r *Rank) Compute(ops int) {
	r.AdvanceBy(float64(ops) * r.world.model.ComputePerOp)
}

// AdvanceBy charges an arbitrary modeled duration in ns (e.g. per-query
// protocol processing that is not proportional to intersection ops).
func (r *Rank) AdvanceBy(ns float64) {
	r.clock.Advance(ns)
	r.ctr.ComputeTime += ns
}

// Send stages a []byte message for dst; it is delivered by the next
// Exchange. The send cost (matching overhead + α + s·β) is charged
// immediately, as with a blocking MPI_Send in rendezvous mode.
func (r *Rank) Send(dst int, data []byte) {
	r.SendPayload(dst, data, len(data))
}

// SendPayload stages an arbitrary payload with an explicit modeled wire
// size. Callers shipping large derived data (e.g. TriC's candidate lists)
// use this to charge the full cost without materializing the bytes.
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
	r.clock.Advance(cost)
	r.ctr.SendCost += cost
	if r.faults != nil && dst != r.id {
		// Fault plane: the schedule may drop this message in flight d
		// times. The sender detects each loss at the ack-timeout budget
		// and resends at full wire cost, all before the rendezvous
		// returns — so delivery content and the canonical
		// (sender, send-order) exchange fold are untouched, only the
		// sender's clock pays. Decisions key on the rank-local send
		// sequence, making them identical at any worker count. Recovery is
		// blocking, so its advances are raw: never noise-perturbed, no
		// noise draws.
		if d := r.faults.MsgDrops(); d > 0 {
			pol := r.faults.Policy()
			for i := 0; i < d; i++ {
				r.clock.AdvanceRaw(pol.TimeoutNS)
				r.clock.AdvanceRaw(cost)
				r.ctr.FaultWait += pol.TimeoutNS
				r.ctr.FaultWait += cost
			}
			r.ctr.Retransmits += int64(d)
		}
	}
	r.ctr.MsgsSent++
	r.ctr.BytesSent += int64(size)
	r.outbox[dst] = append(r.outbox[dst], Message{From: r.id, Size: size, Payload: payload})
}

// Inbox returns the messages delivered to this rank by the last Exchange,
// in deterministic (sender-rank, send-order) order.
func (r *Rank) Inbox() []Message { return r.inbox }

// World is a BSP world of p ranks.
type World struct {
	p     int
	model rma.CostModel
	pool  *sched.Pool
	ranks []*Rank
	steps int
}

// NewWorld creates a BSP world of p ranks sharing the given cost model,
// with superstep bodies running on up to GOMAXPROCS concurrent workers
// (see NewWorldWorkers).
func NewWorld(p int, model rma.CostModel) *World {
	return NewWorldWorkers(p, model, 0)
}

// NewWorldWorkers creates a BSP world whose superstep bodies execute on at
// most workers concurrent goroutines; workers <= 0 selects GOMAXPROCS.
// Supersteps are barrier-phased — ranks interact only through the
// host-serial Exchange between steps — so results are bit-identical at
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

// SetFaults installs a deterministic fault schedule: every rank binds its
// own decision stream from the spec. Must be called before the first
// Superstep; a nil or disabled spec leaves the plane off at zero cost.
// Only the message-drop class applies to the two-sided world.
func (w *World) SetFaults(spec *fault.Spec) {
	for i, r := range w.ranks {
		r.faults = fault.New(spec, i)
	}
}

// NumRanks returns the world size.
func (w *World) NumRanks() int { return w.p }

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
func (w *World) Superstep(body func(r *Rank)) {
	w.pool.Run(w.p, func(i int) {
		body(w.ranks[i])
	})
	w.Exchange()
}

// Exchange delivers all staged messages and synchronizes: every clock jumps
// to the global maximum plus BarrierLatency, and receivers are charged the
// per-message matching overhead plus a local copy of the payload. This is
// the blocking all-to-all step whose cost TriC pays every round.
func (w *World) Exchange() {
	w.steps++
	// Barrier: all ranks wait for the slowest.
	max := 0.0
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > max {
			max = t
		}
	}
	max += w.model.BarrierLatency
	for _, r := range w.ranks {
		r.ctr.BarrierWait += max - r.clock.Now()
		r.clock.AdvanceTo(max)
	}
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
				dst.clock.Advance(cost)
				dst.ctr.RecvCost += cost
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
	max := 0.0
	for _, r := range w.ranks {
		if t := r.clock.Now(); t > max {
			max = t
		}
	}
	max += cost + w.model.BarrierLatency
	for _, r := range w.ranks {
		r.ctr.BarrierWait += max - r.clock.Now()
		r.clock.AdvanceTo(max)
	}
	w.steps++
	return sum
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
