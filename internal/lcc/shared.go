// Package lcc implements the paper's core contribution: triangle counting
// and local clustering coefficient, both as a single-node shared-memory
// kernel (§III-C, used by the Table III / Fig. 6 experiments) and as the
// fully asynchronous distributed-memory engine over simulated MPI RMA with
// optional CLaMPI caching (§III-A/B, the headline system).
package lcc

import (
	"repro/internal/graph"
	"repro/internal/intersect"
)

// Score computes the LCC of a vertex from its triangle count t and
// out-degree d, per Eq. (1)/(2) of the paper. For undirected graphs t is
// the number of *unordered* connected neighbour pairs (the edge-centric
// method with the upper-triangle offset counts each pair once), so the
// numerator 2t matches Eq. (2); for directed graphs t counts ordered pairs
// directly as in Eq. (1).
func Score(kind graph.Kind, t int64, d int) float64 {
	if d < 2 {
		return 0
	}
	den := float64(d) * float64(d-1)
	if kind == graph.Undirected {
		return 2 * float64(t) / den
	}
	return float64(t) / den
}

// TriangleCount converts the per-vertex sum Σt_i into the global triangle
// count. With the upper-triangle offset, an undirected triangle is counted
// once at each of its three corners, so Δ = Σt/3. For directed graphs Σt
// enumerates transitive triads (e_ij, e_jk, e_ik) once each and is returned
// unchanged.
func TriangleCount(kind graph.Kind, sumT int64) int64 {
	if kind == graph.Undirected {
		return sumT / 3
	}
	return sumT
}

// vertexTriangles returns the edge-centric triangle count t_i of one
// vertex: Σ_{v_j ∈ adj(v_i)} |adj(v_i) ∩ adj'(v_j)| where adj' is offset to
// the upper triangle for undirected graphs (§II-C). ops returns the total
// intersection iterations, the modeled-compute charge. The caller holds the
// scratch, so its loop amortizes the stamp set across pivots, and the
// orientation index that cuts and indexes adj'(v_j), as the engine's visit
// (worker.run) does.
func vertexTriangles(g *graph.Graph, vi graph.V, method intersect.Method, its *intersect.Scratch, orient *orientIndex) (t int64, ops int) {
	adjI := g.Adj(vi)
	for _, vj := range adjI {
		adjJ := g.Adj(vj)
		var setJ *intersect.DenseSet
		if g.Kind() == graph.Undirected {
			adjJ, setJ = orient.upper(vj, adjJ)
		}
		c, o := its.CountIndexed(method, adjI, adjJ, setJ)
		t += int64(c)
		ops += o
	}
	return t, ops
}

// SharedResult is the output of the single-node computation.
type SharedResult struct {
	LCC       []float64 // per-vertex local clustering coefficient
	PerVertex []int64   // per-vertex triangle counts t_i
	Triangles int64     // global count (see TriangleCount)
	Ops       int64     // total intersection iterations
}

// SharedLCC computes LCC for every vertex on a single node with the given
// intersection method — the shared-memory baseline of §IV-C and the ground
// truth the distributed engines are tested against. It runs the kernels the
// distributed engine runs, behind an orientation index of its own, so its
// wall time is the engine's with the fetch plane taken away; BruteForceLCC
// is the oracle that shares nothing with either.
func SharedLCC(g *graph.Graph, method intersect.Method) *SharedResult {
	n := g.NumVertices()
	res := &SharedResult{
		LCC:       make([]float64, n),
		PerVertex: make([]int64, n),
	}
	its := intersect.GetScratch()
	defer intersect.PutScratch(its)
	orient := newOrientIndex(n)
	var sum int64
	for v := 0; v < n; v++ {
		t, ops := vertexTriangles(g, graph.V(v), method, its, orient)
		res.PerVertex[v] = t
		res.LCC[v] = Score(g.Kind(), t, g.OutDegree(graph.V(v)))
		res.Ops += int64(ops)
		sum += t
	}
	res.Triangles = TriangleCount(g.Kind(), sum)
	return res
}
