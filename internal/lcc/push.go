package lcc

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/rma"
)

// This file implements the push side of the push–pull dichotomy the paper
// lists as future work (§VI ii, citing Besta et al., HPDC'17). The pull
// engine (engine.go) has every rank read the adjacency lists it is missing
// and count triangles for its own vertices; each undirected triangle is
// therefore *discovered three times*, once per corner owner, and each
// discovery pulls a full adjacency list across the network. The push engine
// inverts the data flow: each triangle is discovered exactly once — at the
// owner of its corner that is smallest in a hashed total order (see
// discLess), by walking only wedges v_i <h v_j and keeping common
// neighbours v_k >h v_j — and the two non-local corners receive their +1
// contributions through one-sided accumulates into a third RMA window of
// per-vertex counters.
//
// The trade this exposes (and the A10 ablation measures):
//
//   - pull moves large payloads (whole adjacency lists, α + deg·4β per
//     get) but needs no write traffic and *no synchronization at all*;
//   - push pulls only half the wedges but owes two contributions per
//     triangle, and must close with one fence so every contribution has
//     landed before LCC scores are read — the single synchronization point
//     the paper's pull design exists to avoid.
//
// Contributions are combined in a per-rank map during the walk and shipped
// as one batched accumulate per target rank after it — the message
// aggregation every production push system applies. One message per
// triangle corner would cost an α each, which is ruinous on triangle-dense
// graphs; combined, push is competitive exactly where caching does not help
// pull: flat degree distributions with little reuse.

// mix32 is the 32-bit murmur3 finalizer: a bijective scramble of vertex
// ids. The discovery order must be decoupled from the partition order —
// under the raw id order the rank owning the lowest block would keep
// almost every wedge (every neighbour id is larger) while the last rank
// kept none, so the halved get traffic would all pool on one critical-path
// rank. Hashing makes "smallest corner" uniform across ranks.
func mix32(x graph.V) uint32 {
	z := uint32(x)
	z ^= z >> 16
	z *= 0x85ebca6b
	z ^= z >> 13
	z *= 0xc2b2ae35
	z ^= z >> 16
	return z
}

// discLess is the deterministic total order used for once-per-triangle
// discovery: hashed id, ties broken by raw id (mix32 is bijective, so ties
// never actually occur; the fallback keeps the order total by
// construction).
func discLess(u, v graph.V) bool {
	hu, hv := mix32(u), mix32(v)
	if hu != hv {
		return hu < hv
	}
	return u < v
}

// RunPush executes push-mode distributed triangle counting and LCC. It
// requires an undirected graph: the once-per-triangle discovery rule
// totally orders corners, which has no meaning for the directed Eq. (1)
// numerator. Results (LCC and Triangles) are bit-identical to Run's.
func RunPush(g graph.Store, opt Options) (*Result, error) {
	return RunPushCtx(context.Background(), g, opt)
}

// RunPushCtx is RunPush under supervision, with the same cancellation,
// panic-isolation and crash-stop contract as RunCtx. The push engine's
// single fence is a cancellation point like every barrier: a canceled run
// wakes the ranks parked in the rendezvous and unwinds them.
func RunPushCtx(ctx context.Context, g graph.Store, opt Options) (*Result, error) {
	if g.Kind() != graph.Undirected {
		return nil, fmt.Errorf("lcc: push engine requires an undirected graph (directed LCC has no smallest-corner discovery rule)")
	}
	s, err := opt.snapshot(g)
	if err != nil {
		return nil, err
	}
	return s.runPushCtx(ctx, opt)
}

// runPushCtx is RunPushCtx over a snapshot of an undirected graph.
func (s *Snapshot) runPushCtx(ctx context.Context, opt Options) (*Result, error) {
	// The graph windows are typed and read-only; the triangle-counter
	// window stays a writable byte window — it is the one region peers
	// write (AccumulateBatch), so its gets keep snapshot-copy semantics.
	var wTri *rma.Window
	var bar *rma.Barrier
	prepare := func(comm *rma.Comm) {
		triBufs := make([][]byte, s.ranks)
		for r, lc := range s.locals {
			triBufs[r] = make([]byte, 8*lc.NumLocal())
		}
		wTri = comm.CreateWindow("triangles", triBufs)
		bar = comm.NewBarrier()
	}
	lccOut := make([]float64, s.n)
	return s.launch(ctx, opt, lccOut, prepare, func(w *worker) int64 {
		return w.runPush(lccOut, wTri, bar)
	})
}

// runPush walks the rank's upper wedges, discovers each triangle once,
// keeps the smallest corner's count locally, combines the other two
// corners' contributions and ships them, then fences and scores the owned
// vertices. It returns this rank's Σ t_i (after the fence, i.e. including
// contributions pushed by peers).
func (w *worker) runPush(lccOut []float64, wTri *rma.Window, bar *rma.Barrier) int64 {
	w.r.LockAll(wTri)
	nLocal := w.lc.NumLocal()
	perVertexT := make([]uint64, nLocal)
	combined := make(map[graph.V]uint64)
	push := func(u graph.V) {
		combined[u]++
		w.r.Compute(1)
	}

	// Only wedges v_i <h v_j (hashed order) are walked: the filter halves
	// the pull traffic relative to Algorithm 3 — uniformly across ranks,
	// see discLess — and makes the hash-smallest corner the unique
	// discoverer of each triangle.
	w.edgeFilter = func(li int, vj graph.V) bool {
		return discLess(w.pt.VertexAt(w.r.ID(), li), vj)
	}
	var common []graph.V
	w.forEachEdge(func(li int, vj graph.V, adjJ []graph.V) {
		adjI := w.adjOwned(li)
		var ops int
		common, ops = w.its.Elements(w.opt.Method, adjI, adjJ, common[:0])
		w.r.Compute(ops + 4)
		for _, vk := range common {
			// Keep only v_j <h v_k: with the walk filter this makes the
			// corner order v_i <h v_j <h v_k unique per triangle.
			if !discLess(vj, vk) {
				continue
			}
			perVertexT[li]++
			push(vj)
			push(vk)
		}
	})
	w.flushCombined(wTri, combined)

	// One fence: every contribution — ours and our peers' — must have
	// landed in the counter windows before scores are read. This is the
	// single synchronization point push re-introduces.
	w.r.Fence(wTri, bar)

	// Fold the locally-kept smallest-corner counts into the window image
	// and score. The local region is read back with one local get.
	var req rma.Request
	w.r.GetInto(&req, wTri, w.r.ID(), 0, 8*nLocal)
	pushed := rma.DecodeUint64s(req.Data())

	var sumT int64
	for li := 0; li < nLocal; li++ {
		t := int64(perVertexT[li] + pushed[li])
		v := w.pt.VertexAt(w.r.ID(), li)
		d := w.lc.DegreeOf(li)
		lccOut[v] = Score(w.kind, t, d)
		sumT += t
		w.r.Compute(2)
	}
	w.r.UnlockAll(wTri)
	return sumT
}

// flushCombined groups the combining map by owner rank and ships one
// batched accumulate per target. Updates are sorted by offset so runs are
// deterministic and the wire image is sequential.
func (w *worker) flushCombined(wTri *rma.Window, combined map[graph.V]uint64) {
	byOwner := make(map[int][]rma.Update)
	for u, cnt := range combined {
		owner, li := unpackResolve(w.resolve[u])
		byOwner[owner] = append(byOwner[owner], rma.Update{Offset: 8 * li, Delta: cnt})
	}
	owners := make([]int, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		ups := byOwner[o]
		sort.Slice(ups, func(i, j int) bool { return ups[i].Offset < ups[j].Offset })
		w.r.Compute(len(ups))
		w.r.AccumulateBatch(wTri, o, ups)
	}
}
