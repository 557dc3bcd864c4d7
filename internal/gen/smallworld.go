package gen

import (
	"repro/internal/graph"
)

// WattsStrogatz generates the small-world graph of Watts & Strogatz —
// "Collective dynamics of 'small-world' networks", the paper's reference
// [9] and the origin of the local clustering coefficient itself (§II-D).
// n vertices are placed on a ring, each joined to its k nearest neighbours
// (k even), and every edge is rewired with probability beta to a uniformly
// random endpoint. beta=0 yields a lattice with high, uniform LCC; beta=1
// approaches a random graph with vanishing LCC. Sweeping beta reproduces
// the classic C(β)/C(0) curve (examples/smallworld), which doubles as a
// validation workload for the LCC engines: the lattice's exact clustering
// coefficient is known in closed form.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++
	}
	if k >= n {
		k = n - 1
		if k%2 == 1 {
			k--
		}
	}
	rng := newRNG(seed)
	// present tracks edges as u*n+v with u<v so rewiring can avoid
	// duplicates without rebuilding adjacency sets.
	present := make(map[uint64]bool, n*k/2)
	key := func(u, v graph.V) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)*uint64(n) + uint64(v)
	}
	type edge struct{ u, v graph.V }
	edges := make([]edge, 0, n*k/2)
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			u := graph.V(i)
			v := graph.V((i + j) % n)
			if u == v || present[key(u, v)] {
				continue
			}
			present[key(u, v)] = true
			edges = append(edges, edge{u, v})
		}
	}
	// Rewire pass (the published procedure rewires the "far" endpoint of
	// each lattice edge with probability beta).
	for idx := range edges {
		if rng.Float64() >= beta {
			continue
		}
		e := edges[idx]
		// Draw a replacement endpoint; skip if it would create a
		// self-loop or duplicate. A bounded number of retries keeps
		// the generator total even for dense rings.
		for attempt := 0; attempt < 32; attempt++ {
			w := graph.V(rng.IntN(n))
			if w == e.u || present[key(e.u, w)] {
				continue
			}
			delete(present, key(e.u, e.v))
			present[key(e.u, w)] = true
			edges[idx].v = w
			break
		}
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{Src: e.u, Dst: e.v}
	}
	return graph.MustBuild(graph.Undirected, n, out)
}

// RingLatticeLCC returns the closed-form clustering coefficient of the
// beta=0 Watts–Strogatz lattice: C(0) = 3(k−2) / (4(k−1)). Tests compare
// the engines against it.
func RingLatticeLCC(k int) float64 {
	if k < 2 {
		return 0
	}
	return 3 * float64(k-2) / (4 * float64(k-1))
}
