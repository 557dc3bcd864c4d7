package lcc

import (
	"sort"

	"repro/internal/graph"
)

// This file implements static vertex delegation, the classical alternative
// to the paper's dynamic RMA caching. The abstract frames the contribution
// as "achieving vertex delegation by a caching mechanism": instead of
// *predicting* which vertices are hot and replicating their adjacency
// lists everywhere before the run (delegation), CLaMPI *discovers* them —
// each rank's cache converges on its own working set. The A11 ablation
// puts the two head to head under the same per-rank memory budget.
//
// Delegation here is deliberately the strong form of the baseline: the
// replica set is chosen with exact global degree knowledge (an oracle a
// real system would have to approximate), and the replication traffic is
// excluded from the measured time, exactly as the paper excludes the graph
// distribution phase (§IV-A). Even against that oracle, caching holds its
// ground wherever reuse is dynamic — and the oracle still pays its memory
// on every rank for vertices that particular rank never touches.

// Delegation is an immutable set of vertices whose lists every rank reads
// from the owner's CSR at local-memory cost. The zero value delegates nothing.
type Delegation struct {
	set   []uint64 // bit v set: v is delegated; nil until one is
	n     int
	bytes int
}

// delegationEntryOverhead is the per-entry bookkeeping charge (index slot
// plus bounds), mirroring the 16-byte (start,end) record a cached offsets
// entry occupies, so delegation and cache budgets are comparable.
const delegationEntryOverhead = 16

// BuildDelegation selects the vertices with the highest in-degree — the
// number of adjacency lists that name them, which is what the expected
// remote-access count of §III-B tracks — greedily until the per-rank byte
// budget is exhausted. Each entry charges the replica a rank would hold, 4
// bytes per neighbour plus a 16-byte header. Ties are broken by vertex id so
// the selection is deterministic.
func BuildDelegation(g graph.Store, budgetBytes int) *Delegation {
	d := &Delegation{}
	if budgetBytes <= 0 {
		return d
	}
	n := g.NumVertices()
	indeg := storeInDegrees(g)
	order := make([]graph.V, n)
	for i := range order {
		order[i] = graph.V(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := indeg[order[i]], indeg[order[j]]
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	for _, v := range order {
		cost := delegationEntryOverhead + 4*g.OutDegree(v)
		if d.bytes+cost > budgetBytes {
			// Degrees only shrink from here; the next smaller entry
			// might still fit, so keep scanning until even the header
			// would not.
			if d.bytes+delegationEntryOverhead >= budgetBytes {
				break
			}
			continue
		}
		if d.set == nil {
			d.set = make([]uint64, (n+63)/64)
		}
		d.set[v/64] |= 1 << (v % 64)
		d.n++
		d.bytes += cost
	}
	return d
}

// storeInDegrees computes per-vertex in-degrees for any Store; plain
// graphs answer from their own (possibly cached) scan.
func storeInDegrees(g graph.Store) []int {
	if pg, ok := g.(*graph.Graph); ok {
		return pg.InDegrees()
	}
	in := make([]int, g.NumVertices())
	var buf []graph.V
	for v := 0; v < len(in); v++ {
		buf = g.AdjInto(graph.V(v), buf)
		for _, u := range buf {
			in[u]++
		}
	}
	return in
}

// Has reports whether v was delegated. An empty delegation — off, or a
// budget nothing fits — has no set and answers from its length: every
// remote fetch asks.
func (d *Delegation) Has(v graph.V) bool {
	if d == nil {
		return false
	}
	word := int(v / 64)
	return word < len(d.set) && d.set[word]&(1<<(v%64)) != 0
}

// Len returns the number of delegated vertices.
func (d *Delegation) Len() int {
	if d == nil {
		return 0
	}
	return d.n
}

// Bytes returns the per-rank memory the delegation models — the replica a
// rank would hold, including the per-entry overhead.
func (d *Delegation) Bytes() int {
	if d == nil {
		return 0
	}
	return d.bytes
}
