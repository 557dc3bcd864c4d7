package graph

import (
	"fmt"
	"sort"
)

// Build constructs a simple CSR graph with n vertices from an arbitrary edge
// list. Self-loops are dropped and multi-edges collapsed, matching the
// paper's graph model (§II-A: no multi-edges, no loops). For undirected
// graphs every surviving edge is materialized in both adjacency lists.
// Endpoints must be < n.
func Build(kind Kind, n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n)
		}
	}

	// Count arcs per vertex (over-counting duplicates; they are removed
	// after sorting each list).
	deg := make([]int, n)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		deg[e.Src]++
		if kind == Undirected {
			deg[e.Dst]++
		}
	}
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + uint64(deg[v])
	}
	adj := make([]V, offsets[n])
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		adj[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
		if kind == Undirected {
			adj[cursor[e.Dst]] = e.Src
			cursor[e.Dst]++
		}
	}

	// Sort each list and strip duplicates in place, then compact.
	newOff := make([]uint64, n+1)
	w := uint64(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		newOff[v] = w
		for i, x := range list {
			if i > 0 && list[i-1] == x {
				continue
			}
			adj[w] = x
			w++
		}
	}
	newOff[n] = w
	return &Graph{kind: kind, offsets: newOff, adj: adj[:w:w]}, nil
}

// MustBuild is Build for statically correct inputs (tests, generators); it
// panics on error.
func MustBuild(kind Kind, n int, edges []Edge) *Graph {
	g, err := Build(kind, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// removeLowDegree returns the subgraph induced by vertices whose total
// degree (out-degree, plus in-degree for directed graphs) is at least two,
// together with the mapping old→new id (entries for dropped vertices are
// noVertex). Vertices of degree below two cannot participate in a triangle,
// so the paper removes them before distribution (§II-B). The removal is a
// single pass, as in the paper ("one-degree removal"); it does not iterate
// to a 2-core.
func removeLowDegree(g *Graph) (*Graph, []V) {
	n := g.NumVertices()
	total := g.InDegrees()
	if g.kind == Directed {
		for v := 0; v < n; v++ {
			total[v] += g.OutDegree(V(v))
		}
	}
	remap := make([]V, n)
	kept := 0
	for v := 0; v < n; v++ {
		if total[v] >= 2 {
			remap[v] = V(kept)
			kept++
		} else {
			remap[v] = noVertex
		}
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		if remap[v] == noVertex {
			continue
		}
		for _, u := range g.Adj(V(v)) {
			if remap[u] == noVertex {
				continue
			}
			if g.kind == Undirected && u < V(v) {
				continue
			}
			edges = append(edges, Edge{remap[v], remap[u]})
		}
	}
	out := MustBuild(g.kind, kept, edges)
	return out, remap
}

// noVertex marks a vertex removed by removeLowDegree in the returned remap.
const noVertex = ^V(0)

// RemoveLowDegreeIter applies removeLowDegree repeatedly until no vertex of
// total degree below two remains (removing a pendant vertex can create new
// pendants). Triangle counts and LCC numerators are unaffected: a vertex
// with fewer than two incident edges cannot close a triangle.
func RemoveLowDegreeIter(g *Graph) *Graph {
	for {
		pruned, remap := removeLowDegree(g)
		changed := false
		for _, r := range remap {
			if r == noVertex {
				changed = true
				break
			}
		}
		g = pruned
		if !changed {
			return g
		}
	}
}

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm must be
// a permutation of 0..n-1. The paper applies a random relabeling when the
// input is degree-ordered, so that 1D partitioning does not assign all the
// hub vertices to the same process (§II-B).
func Relabel(g *Graph, perm []V) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[perm[v]] = g.OutDegree(V(v))
	}
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + uint64(deg[v])
	}
	adj := make([]V, offsets[n])
	for v := 0; v < n; v++ {
		nv := perm[v]
		dst := adj[offsets[nv]:offsets[nv+1]]
		for i, u := range g.Adj(V(v)) {
			dst[i] = perm[u]
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	}
	return &Graph{kind: g.kind, offsets: offsets, adj: adj}, nil
}
