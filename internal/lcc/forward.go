package lcc

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the forward algorithm of Schank & Wagner ("Finding,
// Counting and Listing all Triangles in Large Graphs", WEA'05), the
// experimental-study reference the paper points to in §V for a thorough
// comparison of triangle-counting algorithms. The forward algorithm orients
// every undirected edge from the lower-degree endpoint to the higher-degree
// one; the resulting DAG has out-degrees bounded by O(√m), and each
// triangle survives as exactly one directed wedge, so no double counting
// and no upper-triangle offsetting is needed. It serves here as an
// independent shared-memory baseline that cross-checks the edge-centric
// engines and as the A5 ablation (orientation vs. §II-C offsetting).

// Orientation is a degree-ordered acyclic orientation of an undirected
// graph: arc u→v exists iff {u,v} ∈ E and u precedes v in the total order
// (deg(u), u) < (deg(v), v).
type Orientation struct {
	out [][]graph.V // out-neighbourhoods, each sorted by vertex id
	n   int
}

// Orient builds the degree-ordered orientation of an undirected graph.
func Orient(g graph.Store) (*Orientation, error) {
	if g.Kind() != graph.Undirected {
		return nil, fmt.Errorf("lcc: Orient requires an undirected graph, got %v", g.Kind())
	}
	rank := make([]uint64, g.NumVertices())
	for v := range rank {
		rank[v] = uint64(g.OutDegree(graph.V(v)))<<32 | uint64(v)
	}
	return orient(g, rank), nil
}

// orient builds the orientation with arc u→v iff {u,v} ∈ E and
// rank[u] < rank[v]. Adjacency lists are sorted by id and filtering keeps
// their order, so every out-neighbourhood is sorted too.
func orient(g graph.Store, rank []uint64) *Orientation {
	n := len(rank)
	o := &Orientation{out: make([][]graph.V, n), n: n}
	var buf []graph.V
	for u := range rank {
		buf = g.AdjInto(graph.V(u), buf)
		var nbrs []graph.V
		for _, v := range buf {
			if rank[u] < rank[v] {
				nbrs = append(nbrs, v)
			}
		}
		o.out[u] = nbrs
	}
	return o
}

// Out returns the sorted out-neighbourhood of u under the orientation.
func (o *Orientation) Out(u graph.V) []graph.V { return o.out[u] }

// MaxOutDegree returns the largest oriented out-degree; for a degree-ordered
// orientation this is O(√m), the property that bounds the forward
// algorithm's work.
func (o *Orientation) MaxOutDegree() int {
	max := 0
	for _, nbrs := range o.out {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// ForwardLCC computes per-vertex triangle counts and LCC scores of an
// undirected graph with the forward algorithm. The PerVertex convention
// matches SharedLCC: each triangle contributes 1 to each of its three
// corners, so the results are directly comparable (and are compared, in
// tests). Ops counts merge iterations, comparable to SharedLCC's
// intersection ops. The merge is inherent to forward — there is no method
// parameter because the algorithm enumerates, rather than counts, common
// neighbours.
func ForwardLCC(g *graph.Graph) (*SharedResult, error) {
	o, err := Orient(g)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	res := &SharedResult{
		LCC:       make([]float64, n),
		PerVertex: make([]int64, n),
	}
	res.Triangles, res.Ops = o.merge(func(u, v, w graph.V) {
		res.PerVertex[u]++
		res.PerVertex[v]++
		res.PerVertex[w]++
	})
	for v := 0; v < n; v++ {
		res.LCC[v] = Score(graph.Undirected, res.PerVertex[v], g.OutDegree(graph.V(v)))
	}
	return res, nil
}

// DegeneracyOrder returns a smallest-last (core) ordering of an undirected
// graph and its degeneracy (the largest minimum degree over the peeling).
// Orienting by a degeneracy order bounds oriented out-degrees by the
// degeneracy itself, which for real-world graphs is far below √m; the A5
// ablation compares it against the plain degree order.
func DegeneracyOrder(g *graph.Graph) (order []graph.V, degeneracy int, err error) {
	if g.Kind() != graph.Undirected {
		return nil, 0, fmt.Errorf("lcc: DegeneracyOrder requires an undirected graph, got %v", g.Kind())
	}
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.V(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue over current degrees.
	buckets := make([][]graph.V, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], graph.V(v))
	}
	removed := make([]bool, n)
	order = make([]graph.V, 0, n)
	cur := 0
	for len(order) < n {
		// Find the lowest non-empty bucket; cur only needs to step
		// back by one per removal (degrees drop by at most 1 per
		// removed neighbour).
		if cur > 0 {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		if cur > maxDeg {
			break
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry; v was re-bucketed
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, w := range g.Adj(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
			}
		}
	}
	return order, degeneracy, nil
}

// OrientByOrder builds an orientation from an arbitrary total order given
// as a permutation of the vertices (order[i] is removed i-th): arcs point
// from earlier to later vertices. Out-neighbourhoods remain sorted by id.
func OrientByOrder(g *graph.Graph, order []graph.V) (*Orientation, error) {
	if g.Kind() != graph.Undirected {
		return nil, fmt.Errorf("lcc: OrientByOrder requires an undirected graph, got %v", g.Kind())
	}
	n := g.NumVertices()
	if len(order) != n {
		return nil, fmt.Errorf("lcc: order has %d entries for %d vertices", len(order), n)
	}
	pos := make([]uint64, n)
	seen := make([]bool, n)
	for i, v := range order {
		if int(v) >= n || seen[v] {
			return nil, fmt.Errorf("lcc: order is not a permutation (entry %d = %d)", i, v)
		}
		seen[v] = true
		pos[v] = uint64(i)
	}
	return orient(g, pos), nil
}

// CountOriented counts triangles on a prebuilt orientation (each counted
// once). It is ForwardLCC's merge without the per-vertex tallies, for
// ablations that swap orderings.
func CountOriented(o *Orientation) (triangles int64, ops int64) {
	return o.merge(nil)
}

// merge merges out(u) with out(v) for every arc u→v: each common oriented
// out-neighbour w is the apex of exactly one triangle {u,v,w}, passed to
// tri unless it is nil. ops counts merge iterations.
func (o *Orientation) merge(tri func(u, v, w graph.V)) (triangles int64, ops int64) {
	for u := 0; u < o.n; u++ {
		outU := o.out[u]
		for _, v := range outU {
			outV := o.out[v]
			i, j := 0, 0
			for i < len(outU) && j < len(outV) {
				ops++
				switch {
				case outU[i] == outV[j]:
					if tri != nil {
						tri(graph.V(u), v, outU[i])
					}
					triangles++
					i++
					j++
				case outU[i] < outV[j]:
					i++
				default:
					j++
				}
			}
		}
	}
	return triangles, ops
}
