package grid

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intersect"
	"repro/internal/lcc"
	"repro/internal/rma"
)

// Options configure a 2D distributed run.
type Options struct {
	// Ranks is p; it must be a perfect square (the grid is √p×√p).
	Ranks int
	Model rma.CostModel
	// Workers bounds concurrent rank execution on the host; 0 selects
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int

	// ChargeObserver exposes the rma charge-tape diagnostic (see
	// lcc.Options): it observes every folded charge in canonical order.
	ChargeObserver rma.ChargeObserver

	// Faults installs a deterministic fault schedule (see lcc.Options).
	Faults *fault.Spec
}

func (o Options) withDefaults() Options {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.Model == (rma.CostModel{}) {
		o.Model = rma.DefaultCostModel()
	}
	return o
}

// Result is the output of a 2D run.
type Result struct {
	LCC       []float64
	Triangles int64
	SimTime   float64 // slowest rank, ns — same metric as the 1D engine
	// RemoteBytesMax is the largest per-rank remote traffic; the 2D
	// scheme's selling point is that it shrinks as O(nnz/√p) where the
	// 1D engine's stays O(nnz) (§VI i).
	RemoteBytesMax int64
	BlockFetches   int64 // total remote block gets across ranks
	// PerRank is each rank's clock, ledger and counters (no read stats).
	PerRank []lcc.RankStats
}

// Run executes asynchronous 2D triangle counting and LCC on an undirected
// graph. Rank (i,j) owns block A[i,j] and computes the masked partial
// products Σ_k A[i,k]·A[k,j] ∘ A[i,j], pulling each non-local operand
// block once with a single one-sided get. No rank synchronizes with any
// other between setup and finish — the 2D engine keeps the paper's
// fully-asynchronous discipline, only the distribution changes.
// A fail-fast crash-stop (Options.Faults) returns its *fault.CrashError,
// a rank-body panic a *sched.PanicError naming the rank.
func Run(g graph.Store, opt Options) (*Result, error) {
	if g.Kind() != graph.Undirected {
		return nil, fmt.Errorf("grid: 2D engine requires an undirected graph, got %v", g.Kind())
	}
	opt = opt.withDefaults()
	n := g.NumVertices()
	gr, err := NewGrid(n, opt.Ranks)
	if err != nil {
		return nil, err
	}
	q := gr.Side()

	// Cut all q² blocks and expose each rank's own block in one window.
	blocks := make([]*Block, opt.Ranks)
	bufs := make([][]byte, opt.Ranks)
	for r := 0; r < opt.Ranks; r++ {
		i, j := gr.CoordsOf(r)
		blocks[r] = gr.Extract(g, i, j)
		bufs[r] = blocks[r].Serialize()
	}
	// Serialized blocks are immutable for the whole run, so the window is
	// read-only: every block get is served as an aliased view.
	comm := rma.NewCommWorkers(opt.Ranks, opt.Model, opt.Workers)
	comm.SetChargeObserver(opt.ChargeObserver)
	comm.SetFaults(opt.Faults)
	win := comm.CreateReadOnlyWindow("blocks", bufs)

	// Per-row triangle partials: rank (i,j) writes only rows of chunk i;
	// ranks in the same grid row write disjoint... no — they write the
	// same rows (different mask columns), so each rank accumulates into
	// its own slab and the host sums afterwards (the reduction is not
	// part of the timed computation, matching the 1D engine's
	// convention).
	partials := make([][]int64, opt.Ranks)
	stats := make([]lcc.RankStats, opt.Ranks)

	ranks, err := comm.RunCtx(context.Background(), func(r *rma.Rank) {
		i, j := gr.CoordsOf(r.ID())
		own := blocks[r.ID()]
		rowLo, rowHi := gr.Chunk(i)
		mine := make([]int64, rowHi-rowLo)
		r.LockAll(win)

		// The rank's pooled intersection scratch doubles as the per-row
		// sparse accumulator over the mask columns (Gustavson's SPA
		// restricted to A[i,j]'s row pattern): Stamp publishes the mask
		// row, Has tests membership, at one bit per column.
		its := intersect.GetScratch()
		its.EnsureUniverse(n)
		defer intersect.PutScratch(its)

		fetch := func(br, bc int) (*Block, error) {
			owner := gr.RankOf(br, bc)
			if owner == r.ID() {
				// Own block: already in memory; charge one local
				// streaming read, as the 1D engine does for local
				// partitions — recorded on the charge tape, like the
				// 1D engines' local fetches.
				r.ChargeLocalRead(own.WireSize())
				return own, nil
			}
			rLo2, rHi2 := gr.Chunk(br)
			cLo2, cHi2 := gr.Chunk(bc)
			var qreq rma.Request
			r.GetInto(&qreq, win, owner, 0, win.SizeAt(owner))
			qreq.Wait()
			return DeserializeBlock(qreq.Data(), rLo2, rHi2, cLo2, cHi2)
		}

		for k := 0; k < q; k++ {
			aik, err := fetch(i, k)
			if err != nil {
				panic(fmt.Sprintf("grid: rank %d: %v", r.ID(), err))
			}
			akj, err := fetch(k, j)
			if err != nil {
				panic(fmt.Sprintf("grid: rank %d: %v", r.ID(), err))
			}
			for lr := 0; lr < rowHi-rowLo; lr++ {
				maskRow := own.Row(lr)
				if len(maskRow) == 0 {
					continue
				}
				aRow := aik.Row(lr)
				if len(aRow) == 0 {
					continue
				}
				// The modeled charge is unchanged: one pass to set the
				// mask, one per probed row, one pass to clear — only
				// the host data structure moved into the stamp set.
				ops := 0
				its.Stamp(maskRow)
				ops += len(maskRow)
				var t int64
				for _, w := range aRow {
					bRow := akj.RowOf(w)
					ops += len(bRow) + 1
					for _, c := range bRow {
						if its.Has(c) {
							t++
						}
					}
				}
				its.Unstamp()
				ops += len(maskRow)
				r.Compute(ops)
				mine[lr] += t
			}
		}
		r.UnlockAll(win)
		partials[r.ID()] = mine
		stats[r.ID()] = lcc.RankStats{Rank: r.ID(), SimTime: r.Now(), Ledger: r.Ledger(), RMA: r.Counters()}
	})
	if err != nil {
		return nil, err
	}

	// Host-side reduction (untimed, as in the 1D engine): sum partials
	// into per-vertex row sums; t_u = rowsum/2, Δ = Σ rowsum / 6.
	rowSums := make([]int64, n)
	for r := 0; r < opt.Ranks; r++ {
		i, _ := gr.CoordsOf(r)
		rowLo, _ := gr.Chunk(i)
		for lr, t := range partials[r] {
			rowSums[rowLo+lr] += t
		}
	}
	res := &Result{LCC: make([]float64, n), SimTime: rma.MaxClock(ranks), PerRank: stats}
	var total int64
	for u := 0; u < n; u++ {
		total += rowSums[u]
		res.LCC[u] = lcc.Score(graph.Undirected, rowSums[u]/2, g.OutDegree(graph.V(u)))
	}
	res.Triangles = total / 6
	var agg rma.Counters
	for _, s := range stats {
		if s.RMA.RemoteBytes > res.RemoteBytesMax {
			res.RemoteBytesMax = s.RMA.RemoteBytes
		}
		agg.Merge(s.RMA)
	}
	res.BlockFetches = agg.Gets
	return res, nil
}

// MustRun is Run for known-valid options; it panics on error.
func MustRun(g graph.Store, opt Options) *Result {
	r, err := Run(g, opt)
	if err != nil {
		panic(fmt.Sprintf("grid: %v", err))
	}
	return r
}
