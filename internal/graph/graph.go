// Package graph provides the compressed-sparse-row (CSR) graph core used by
// every other subsystem in this repository.
//
// The representation follows §II-B of the paper: each graph (or partition)
// is stored as two arrays, offsets and adjacencies. Element i of offsets
// stores the position at which the adjacency list of vertex i starts in the
// adjacencies array; offsets has length n+1 so that the list of vertex i is
// adjacencies[offsets[i]:offsets[i+1]]. Adjacency lists are kept sorted,
// which the intersection kernels (internal/intersect) rely on.
package graph

import (
	"fmt"
	"sort"
)

// V is the vertex identifier type. The paper's datasets fit comfortably in
// 32 bits, and 32-bit ids halve the bytes moved by every remote read, which
// matters because the evaluation is communication bound.
type V = uint32

// Kind distinguishes undirected graphs (each edge stored in both adjacency
// lists) from directed graphs (stored once, in the source's list).
type Kind uint8

const (
	// Undirected graphs store every edge {u,v} in both adj(u) and adj(v).
	Undirected Kind = iota
	// Directed graphs store an edge (u,v) only in adj(u).
	Directed
)

func (k Kind) String() string {
	switch k {
	case Undirected:
		return "undirected"
	case Directed:
		return "directed"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Edge is a directed arc from Src to Dst. Undirected builders treat it as an
// unordered pair.
type Edge struct {
	Src, Dst V
}

// Graph is an immutable CSR graph. All adjacency lists are sorted ascending
// and contain neither self-loops nor duplicates (the paper considers simple
// graphs only; Build enforces this).
type Graph struct {
	kind    Kind
	offsets []uint64 // length n+1
	adj     []V
}

// Kind reports whether the graph is directed or undirected.
func (g *Graph) Kind() Kind { return g.kind }

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumArcs returns the number of stored adjacency entries. For a directed
// graph this equals the number of edges m; for an undirected graph it is 2m.
func (g *Graph) NumArcs() int { return len(g.adj) }

// NumEdges returns m, the number of edges in the usual graph-theoretic
// sense (an undirected edge counts once).
func (g *Graph) NumEdges() int {
	if g.kind == Undirected {
		return len(g.adj) / 2
	}
	return len(g.adj)
}

// Adj returns the sorted adjacency list of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Adj(v V) []V {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// OutDegree returns deg+(v), the length of v's adjacency list.
func (g *Graph) OutDegree(v V) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Offsets returns the raw offsets array (length n+1). The slice aliases the
// graph's storage and must not be modified. It is exported so the RMA layer
// can expose it as a window without copying.
func (g *Graph) Offsets() []uint64 { return g.offsets }

// Arcs returns the raw adjacencies array. The slice aliases the graph's
// storage and must not be modified.
func (g *Graph) Arcs() []V { return g.adj }

// HasEdge reports whether the arc (u,v) is present, by binary search in
// adj(u).
func (g *Graph) HasEdge(u, v V) bool {
	a := g.Adj(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// InDegrees computes deg-(v) for every vertex in one pass over the arcs.
// For undirected graphs in-degree equals out-degree and the offsets array
// is used directly.
func (g *Graph) InDegrees() []int {
	n := g.NumVertices()
	in := make([]int, n)
	if g.kind == Undirected {
		for v := 0; v < n; v++ {
			in[v] = g.OutDegree(V(v))
		}
		return in
	}
	for _, w := range g.adj {
		in[w]++
	}
	return in
}

// MaxDegree returns the largest out-degree in the graph, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// CSRSizeBytes returns the in-memory size of the CSR representation: 8 bytes
// per offsets entry plus 4 bytes per adjacency entry. Table II of the paper
// reports this quantity per dataset.
func (g *Graph) CSRSizeBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.adj))*4
}

// Validate checks the structural invariants the rest of the system assumes:
// monotone offsets bounded by len(adj), sorted duplicate-free adjacency
// lists, in-range endpoints, no self-loops, and (for undirected graphs)
// symmetry. It is used by tests and by the CLI loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if err := g.ValidateQuick(); err != nil {
		return err
	}
	if g.kind == Undirected {
		for v := 0; v < n; v++ {
			for _, w := range g.Adj(V(v)) {
				if !g.HasEdge(w, V(v)) {
					return fmt.Errorf("graph: undirected edge {%d,%d} missing reverse arc", v, w)
				}
			}
		}
	}
	return nil
}

// ValidateQuick checks the structural invariants in O(n+m): monotone
// bounded offsets, strictly sorted in-range adjacency lists, no self-loops.
// It skips the O(m log d) undirected-symmetry check of Validate, which is
// what makes it usable on billion-arc loads; the binary readers use it.
// The vertex ranges are checked on every core (checkSpans); the error
// reported is the lowest vertex's, as one pass from vertex 0 meets it.
func (g *Graph) ValidateQuick() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 {
		return fmt.Errorf("graph: offsets array is empty")
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != uint64(len(g.adj)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
	}
	return checkSpans(n, n+len(g.adj), func(v int) uint64 { return g.offsets[v] }, g.validateRange)
}

// validateRange is ValidateQuick's per-vertex pass over vertices [lo, hi).
// An end past the arcs is reported, not sliced, so no range panics on
// offsets that decrease only further on.
func (g *Graph) validateRange(lo, hi int) error {
	n, off, adj := g.NumVertices(), g.offsets, g.adj
	for v := lo; v < hi; v++ {
		start, end := off[v], off[v+1]
		if start > end {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		if end > uint64(len(adj)) {
			return fmt.Errorf("graph: offsets[%d] = %d, past the %d arcs", v+1, end, len(adj))
		}
		prev := int64(-1)
		for i, w := range adj[start:end] {
			if int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d (n=%d)", v, w, n)
			}
			if w == V(v) {
				return fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			if int64(w) <= prev {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at index %d", v, i)
			}
			prev = int64(w)
		}
	}
	return nil
}

// Edges returns all edges of the graph. For undirected graphs each edge is
// reported once with Src < Dst. The result is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Adj(V(v)) {
			if g.kind == Undirected && w < V(v) {
				continue
			}
			out = append(out, Edge{V(v), w})
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	off := make([]uint64, len(g.offsets))
	copy(off, g.offsets)
	adj := make([]V, len(g.adj))
	copy(adj, g.adj)
	return &Graph{kind: g.kind, offsets: off, adj: adj}
}
