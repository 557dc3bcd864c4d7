// Package tric reimplements the TriC baseline (Ghosh & Halappanavar,
// HPEC'20 — the 2020 Graph Challenge champion) the paper compares against
// (§IV-B): distributed-memory triangle counting in a per-vertex fashion
// with a blocking query–response exchange pattern over two-sided MPI.
//
// Where the paper's asynchronous engine *reads* remote adjacency lists with
// one-sided gets, TriC *ships the candidate sets*: for an edge (i,j) whose
// endpoint j lives on another rank, the owner of i sends the candidate
// neighbour list to the owner of j, which counts the closed triangles and
// responds. Every round is a bulk-synchronous all-to-all exchange, so each
// rank pays the straggler barrier cost — the synchronization overhead the
// paper identifies as TriC's limitation. The memory demand of staged
// candidate lists grows sharply for scale-free graphs; the TriC-Buffered
// variant caps per-peer buffers (16 MiB in the paper's runs) and drains the
// queues over multiple rounds, trading memory for extra synchronization.
package tric

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/p2p"
	"repro/internal/part"
	"repro/internal/rma"
)

// Options configure a TriC run.
type Options struct {
	Ranks int
	Model rma.CostModel
	// Workers bounds concurrent superstep execution on the host; 0
	// selects GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	Method  intersect.Method
	// Buffered caps the bytes of queries a rank may send to one peer per
	// round (the TriC-Buffered variant). 0 means unbuffered: all queries
	// go out in a single exchange.
	Buffered    bool
	BufferBytes int
}

func (o Options) withDefaults() Options {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.Model == (rma.CostModel{}) {
		o.Model = rma.DefaultCostModel()
	}
	if o.Buffered && o.BufferBytes == 0 {
		o.BufferBytes = 16 << 20 // the paper's 16 MiB cap
	}
	return o
}

// Result is the output of a TriC run.
type Result struct {
	LCC        []float64
	Triangles  int64
	SumT       int64
	SimTime    float64 // slowest rank across all supersteps, ns
	Supersteps int
	// MaxQueuedBytes is the peak bytes of staged queries on any rank —
	// the memory pressure that motivates the buffered variant.
	MaxQueuedBytes int64
	PerRank        []p2p.Counters
	// Ledgers is where each rank's time went; every clock ends at SimTime.
	Ledgers []rma.Ledger
}

// query asks the owner of vj to count |candidates ∩ adj'(vj)| and credit
// the result to vertex vi. The modeled wire format is
// [vi, vj, len(candidates), candidates...] as uint32 words; the payload
// itself travels by reference (p2p.SendPayload) with wireSize charged, so
// the simulation does not burn wall-clock time copying the quadratic
// candidate volume that makes real TriC run out of memory.
type query struct {
	vi, vj graph.V
	cands  []graph.V
}

func (q query) wireSize() int { return 4 * (3 + len(q.cands)) }

// queryBatch is the aggregated payload of the buffered variant.
type queryBatch []query

func (b queryBatch) wireSize() int {
	s := 0
	for _, q := range b {
		s += q.wireSize()
	}
	return s
}

// response credits count triangles to vertex vi; responses are always
// batched per destination ([vi, count] word pairs on the wire).
type response struct {
	vi    graph.V
	count graph.V
}

type responseBatch []response

func (b responseBatch) wireSize() int { return 8 * len(b) }

// Run executes TriC on g with p ranks over the simulated BSP world; a
// superstep body that panics ends it with the *sched.PanicError.
func Run(g graph.Store, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumVertices()
	pt, err := part.New(part.Block, n, opt.Ranks)
	if err != nil {
		return nil, err
	}
	locals := part.ExtractAll(g, pt)
	world := p2p.NewWorldWorkers(opt.Ranks, opt.Model, opt.Workers)

	perVertexT := make([]int64, n)
	res := &Result{LCC: make([]float64, n)}

	// Per-rank staged query queues (bytes staged per destination) and a
	// running peak for the memory statistic.
	type rankState struct {
		pendingQ [][]query // per destination
		queuedB  int64
	}
	states := make([]*rankState, opt.Ranks)
	for i := range states {
		states[i] = &rankState{pendingQ: make([][]query, opt.Ranks)}
	}

	// Superstep 1: local counting and query generation.
	world.Superstep(func(r *p2p.Rank) {
		lc := locals[r.ID()]
		st := states[r.ID()]
		its := intersect.GetScratch()
		defer intersect.PutScratch(its)
		for li := 0; li < lc.NumLocal(); li++ {
			vi := pt.VertexAt(r.ID(), li)
			adjI := lc.AdjOf(li)
			r.Compute(len(adjI))
			for _, vj := range adjI {
				owner := pt.Owner(vj)
				if owner == r.ID() {
					adjJ := lc.AdjOf(pt.LocalIndex(vj))
					if g.Kind() == graph.Undirected {
						adjJ = intersect.UpperSlice(adjJ, vj)
					}
					c, ops := its.Count(opt.Method, adjI, adjJ)
					r.Compute(ops + 4)
					perVertexT[vi] += int64(c)
					continue
				}
				// Remote endpoint: ship the candidate set (only the
				// upper-triangle suffix is needed for undirected
				// graphs, §II-C).
				cands := adjI
				if g.Kind() == graph.Undirected {
					cands = intersect.UpperSlice(adjI, vj)
				}
				q := query{vi: vi, vj: vj, cands: cands}
				st.pendingQ[owner] = append(st.pendingQ[owner], q)
				st.queuedB += int64(q.wireSize())
				r.Compute(len(cands)) // staging copy
			}
		}
	})
	// Queues only grow during the generation superstep, so the per-rank
	// value now IS the peak; reduce host-side (superstep bodies run
	// concurrently and must not contend on a shared maximum).
	for _, st := range states {
		if st.queuedB > res.MaxQueuedBytes {
			res.MaxQueuedBytes = st.queuedB
		}
	}

	// Rounds: drain query queues (respecting the buffer cap), process
	// received queries, return responses, absorb counts. Repeat until no
	// rank holds pending queries and no messages were exchanged.
	pendingResponses := make([][][]response, opt.Ranks)
	for i := range pendingResponses {
		pendingResponses[i] = make([][]response, opt.Ranks)
	}
	// Per-rank activity flags, OR-reduced host-side after each round:
	// superstep bodies run concurrently, so a shared bool would be a
	// write-write race (benign in value, flagged by the race detector).
	act := make([]bool, opt.Ranks)
	for {
		for i := range act {
			act[i] = false
		}
		// Send a bounded batch of queries plus all pending responses.
		world.Superstep(func(r *p2p.Rank) {
			st := states[r.ID()]
			for dst := 0; dst < opt.Ranks; dst++ {
				// Responses first: they are small and unblock peers.
				if rs := pendingResponses[r.ID()][dst]; len(rs) > 0 {
					batch := responseBatch(rs)
					r.SendPayload(dst, batch, batch.wireSize())
					pendingResponses[r.ID()][dst] = nil
					act[r.ID()] = true
				}
				if opt.Buffered {
					// TriC-Buffered: aggregate queries into one
					// fixed-size buffer per peer per round (the
					// paper caps it at 16 MiB), trading extra
					// rounds for amortized message overheads.
					budget := opt.BufferBytes
					var batch queryBatch
					for len(st.pendingQ[dst]) > 0 {
						q := st.pendingQ[dst][0]
						if len(batch) > 0 && q.wireSize() > budget {
							break
						}
						budget -= q.wireSize()
						batch = append(batch, q)
						st.pendingQ[dst] = st.pendingQ[dst][1:]
						st.queuedB -= int64(q.wireSize())
					}
					if len(batch) > 0 {
						r.SendPayload(dst, batch, batch.wireSize())
						act[r.ID()] = true
					}
					continue
				}
				// Plain TriC: one query-response message per remote
				// edge. Each message pays the two-sided matching
				// overhead (§II-E), and ranks owning hub vertices
				// receive disproportionately many of them — the
				// straggler every barrier then imposes on the whole
				// world. This fine-grained pattern plus the blocking
				// exchanges is the synchronization cost the paper's
				// asynchronous design removes (§I, §IV-B).
				for _, q := range st.pendingQ[dst] {
					r.SendPayload(dst, q, q.wireSize())
					st.queuedB -= int64(q.wireSize())
					act[r.ID()] = true
				}
				st.pendingQ[dst] = nil
			}
		})

		// Process what arrived: queries become responses (for the next
		// round); responses fold into per-vertex counts.
		world.Superstep(func(r *p2p.Rank) {
			lc := locals[r.ID()]
			its := intersect.GetScratch()
			defer intersect.PutScratch(its)
			answer := func(q query, from int) {
				adjJ := lc.AdjOf(pt.LocalIndex(q.vj))
				if g.Kind() == graph.Undirected {
					adjJ = intersect.UpperSlice(adjJ, q.vj)
				}
				c, ops := its.Count(opt.Method, q.cands, adjJ)
				// Unpacking the candidate list costs a pass over it,
				// plus the fixed per-query handling charge: dispatching
				// the request, locating the target vertex, generating
				// and accounting the response. The paper's §I
				// observation — TriC's "synchronization overheads being
				// as costly as communication" — calibrates it to 2α (two
				// network latencies' worth of handling per
				// query-response pair, 4 µs). Without this charge the
				// aggregated buffered variant would ship candidate
				// volume at pure bandwidth cost, which no measured TriC
				// deployment achieves.
				r.Compute(ops + len(q.cands) + 4)
				r.AdvanceBy(2 * opt.Model.RemoteLatency)
				pendingResponses[r.ID()][from] = append(
					pendingResponses[r.ID()][from],
					response{vi: q.vi, count: graph.V(c)})
			}
			for _, m := range r.Inbox() {
				switch pl := m.Payload.(type) {
				case responseBatch:
					for _, resp := range pl {
						perVertexT[resp.vi] += int64(resp.count)
					}
					r.Compute(2 * len(pl))
				case query:
					answer(pl, m.From)
				case queryBatch:
					for _, q := range pl {
						answer(q, m.From)
					}
				default:
					panic(fmt.Sprintf("tric: unknown payload type %T", pl))
				}
				act[r.ID()] = true
			}
		})

		active := false
		for _, a := range act {
			active = active || a
		}
		if !active {
			break
		}
	}

	if err := world.Err(); err != nil {
		return nil, err
	}
	// Final reduction of the global triangle count (TriC reports the
	// global value with an MPI_Reduce).
	partial := make([]int64, opt.Ranks)
	for v := 0; v < n; v++ {
		partial[pt.Owner(graph.V(v))] += perVertexT[v]
	}
	res.SumT = world.AllreduceSum(partial)
	res.Triangles = lcc.TriangleCount(g.Kind(), res.SumT)
	for v := 0; v < n; v++ {
		res.LCC[v] = lcc.Score(g.Kind(), perVertexT[v], g.OutDegree(graph.V(v)))
	}
	res.SimTime = world.MaxClock()
	res.Supersteps = world.Steps()
	for _, r := range world.Ranks() {
		res.PerRank = append(res.PerRank, r.Counters())
		res.Ledgers = append(res.Ledgers, r.Ledger())
	}
	return res, nil
}

// MustRun is Run for known-valid options; it panics on error.
func MustRun(g graph.Store, opt Options) *Result {
	r, err := Run(g, opt)
	if err != nil {
		panic(fmt.Sprintf("tric: %v", err))
	}
	return r
}
