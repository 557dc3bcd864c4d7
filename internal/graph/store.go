package graph

import (
	"runtime"
	"sort"

	"repro/internal/sched"
)

// Store is the adjacency-access contract both graph representations
// satisfy: plain in-RAM CSR (*Graph) and delta/varint-compressed CSR
// (*CompressedCSR). Consumers that only
// traverse adjacency lists — partitioning, local-CSR extraction, the
// engines' setup paths — accept a Store and therefore work with any
// representation.
//
// The contract is deliberately narrow: a Store answers "what are the sorted
// neighbours of v" and nothing about how those neighbours are laid out in
// host memory. The simulated model plane never sees a Store at all — by the
// time ranks exchange bytes over RMA windows, every representation has been
// decoded to the identical plain image (same offsets, same adjacency byte
// layout), so simulated costs, cache keys, and SimTime bits cannot depend
// on the host-side representation (DESIGN.md §9).
type Store interface {
	// Kind reports whether the graph is directed or undirected.
	Kind() Kind
	// NumVertices returns n.
	NumVertices() int
	// NumArcs returns the number of stored adjacency entries.
	NumArcs() int
	// NumEdges returns m (an undirected edge counts once).
	NumEdges() int
	// OutDegree returns deg+(v) in O(1).
	OutDegree(v V) int
	// AdjInto returns the sorted adjacency list of v. Representations that
	// hold the plain image return an aliased view and ignore buf; others
	// decode into buf (growing it only if cap(buf) < deg(v)) and return
	// buf[:deg(v)]. Either way the result is valid until the next AdjInto
	// call with the same buf and must not be modified.
	AdjInto(v V, buf []V) []V
}

// *Graph satisfies Store with aliased, zero-copy views.

// AdjInto returns the adjacency list of v as an aliased view; buf is
// ignored. It exists so *Graph satisfies Store.
func (g *Graph) AdjInto(v V, _ []V) []V { return g.Adj(v) }

// Materialize decodes any Store into a plain in-RAM *Graph. If st already
// is one it is returned unchanged (no copy). The lists are decoded on every
// core, one vertex range each (span); a list that does not decode panics on
// the caller's goroutine (sched.Fan).
func Materialize(st Store) *Graph {
	if g, ok := st.(*Graph); ok {
		return g
	}
	n := st.NumVertices()
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + uint64(st.OutDegree(V(v)))
	}
	adj := make([]V, st.NumArcs())
	parts := spanCount()
	sched.Fan(parts, n+len(adj), func(k int) {
		lo, hi := span(k, parts, n, func(v int) uint64 { return offsets[v] })
		for v := lo; v < hi; v++ {
			// Decoding stores fill the list in place; one that hands back
			// its own memory instead is copied.
			dst := adj[offsets[v]:offsets[v+1]:offsets[v+1]]
			if got := st.AdjInto(V(v), dst); len(got) > 0 && &got[0] != &dst[0] {
				copy(dst, got)
			}
		}
	})
	return &Graph{kind: st.Kind(), offsets: offsets, adj: adj}
}

// spanCount is how many vertex ranges a load check cuts a graph into: a
// few per core, so a range that lands on a busy core holds up little.
func spanCount() int { return 4 * runtime.GOMAXPROCS(0) }

// span returns the k-th of parts vertex ranges [lo, hi) of [0, n), cut so
// that each holds about an equal share of first(v) + v: the arcs (or
// stream bytes) before v, plus one per vertex. first is non-decreasing on
// a sound graph; on any other the ranges still tile [0, n), as the binary
// searches of growing targets end at non-decreasing points.
func span(k, parts, n int, first func(v int) uint64) (lo, hi int) {
	cut := func(k int) int {
		if k >= parts {
			return n
		}
		target := (first(n) + uint64(n)) / uint64(parts) * uint64(k)
		return sort.Search(n, func(v int) bool { return first(v)+uint64(v) >= target })
	}
	return cut(k), cut(k + 1)
}

// checkSpans runs check over spanCount vertex ranges of [0, n) (span) on
// every core (sched.Fan; work is the elements they touch) and returns the
// lowest failing range's error — the one a single pass from vertex 0 meets
// first, as each range reports its own first. Every range is checked
// whatever the others find, so the result is the same at any width.
func checkSpans(n, work int, first func(v int) uint64, check func(lo, hi int) error) error {
	parts := spanCount()
	errs := make([]error, parts)
	sched.Fan(parts, work, func(k int) { errs[k] = check(span(k, parts, n, first)) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
