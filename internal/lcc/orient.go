package lcc

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/intersect"
)

// orientIndex is a snapshot's per-vertex orientation index (Snapshot.orient):
// what Algorithm 3's visit needs to know about adj(v_j) beyond its ids, and
// would otherwise recompute for every edge that fetches it.
//
//   - the upper offset |{x ∈ adj(v) : x ≤ v}|: the edge-centric method
//     counts only common neighbours above v_j (§II-C), so every visit
//     starts by cutting adj(v_j) there;
//   - for the few hundred upper lists long and dense enough, an
//     intersect.DenseSet — the list's own bitmap, which the kernels intersect
//     with the stamped adj(v_i) 64 ids a step and rank-query instead of
//     searching.
//
// Entries are constants of the graph, filled by whichever rank first
// fetches the vertex, from the fetched list itself — every source of
// adj(v_j) (owner CSR, window view, cache hit, decode buffer) holds the
// same ids — and published with atomics, so concurrent runs share one index
// and a run's results do not depend on what ran before. Host memory only: 4 bytes per vertex, and per dense hub a 72-byte
// entry that holds the set's header (allocated a page at a time) and the
// set's arrays, twelve bytes per spanned 64-id word (at most twelve per id),
// carved from 64 KiB chunks (mem); not counted by LocalBytes, freed with the
// snapshot.
//
// Nothing read from the index is trusted: upper validates the offset
// against the list in hand and the kernels treat the set as a hint
// (intersect.DenseSet says what each use checks), so a damaged word or a
// list that changed under the index falls back to the searches.
// Snapshot.Verify recomputes every filled entry.
type orientIndex struct {
	// word[v] is 0 until v is filled, then 1 + upper offset, or hubFlag
	// plus the slot of v's hubEntry.
	word []atomic.Uint32

	// The hub entries, in pages so that a published slot never moves:
	// fillers write the next slot under mu and then publish it in word,
	// readers reach it through word's atomic load alone. A graph has at
	// most one hub per vertex, which sizes page. mem is where their sets'
	// arrays come from, under mu like the slots.
	mu   sync.Mutex
	hubs uint32
	mem  intersect.Slab
	page []atomic.Pointer[hubPage]
}

const (
	hubFlag     = 1 << 31
	hubPageBits = 8
)

type hubPage [1 << hubPageBits]hubEntry

// hubEntry is the index of a vertex whose upper list has a DenseSet.
// Immutable once published; the slots past the last one hold the zero entry,
// whose set has no words.
type hubEntry struct {
	upper int
	set   intersect.DenseSet
}

func newOrientIndex(n int) *orientIndex {
	return &orientIndex{
		word: make([]atomic.Uint32, n),
		page: make([]atomic.Pointer[hubPage], n>>hubPageBits+1),
	}
}

// upper cuts list = adj(vj) down to the ids above vj and returns the
// DenseSet over that upper list, nil when it has none. A nil index
// searches, like every entry that fails validation.
func (ix *orientIndex) upper(vj graph.V, list []graph.V) ([]graph.V, *intersect.DenseSet) {
	if ix == nil || int(vj) >= len(ix.word) {
		return intersect.UpperSlice(list, vj), nil
	}
	w := ix.word[vj].Load()
	if w == 0 {
		return ix.fill(vj, list)
	}
	u := int(w) - 1
	var set *intersect.DenseSet
	if w&hubFlag != 0 {
		h := ix.hub(w &^ hubFlag)
		if h == nil {
			return intersect.UpperSlice(list, vj), nil
		}
		u, set = h.upper, &h.set
	}
	// u is the upper offset of an ascending list iff its two neighbours say so.
	if uint(u) > uint(len(list)) || (u > 0 && list[u-1] > vj) || (u < len(list) && list[u] <= vj) {
		return intersect.UpperSlice(list, vj), nil
	}
	return list[u:], set
}

// hub returns the entry in slot, nil if there is none (a damaged word).
func (ix *orientIndex) hub(slot uint32) *hubEntry {
	if int(slot>>hubPageBits) >= len(ix.page) {
		return nil
	}
	pg := ix.page[slot>>hubPageBits].Load()
	if pg == nil {
		return nil
	}
	if h := &pg[slot&(1<<hubPageBits-1)]; h.set.MemBytes() != 0 {
		return h
	}
	return nil
}

// fill computes vj's entry from list, publishes it unless another rank got
// there first, and returns what upper would.
func (ix *orientIndex) fill(vj graph.V, list []graph.V) ([]graph.V, *intersect.DenseSet) {
	up := intersect.UpperSlice(list, vj)
	u := len(list) - len(up)
	if len(up) >= intersect.DenseMinLen {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if ix.word[vj].Load() != 0 {
			return up, nil // another rank published meanwhile; this one call searches
		}
		if set, ok := intersect.NewDenseSet(up, &ix.mem); ok {
			slot := ix.hubs
			pg := ix.page[slot>>hubPageBits].Load()
			if pg == nil {
				pg = new(hubPage)
				ix.page[slot>>hubPageBits].Store(pg)
			}
			h := &pg[slot&(1<<hubPageBits-1)]
			*h = hubEntry{upper: u, set: set}
			ix.hubs++
			ix.word[vj].Store(hubFlag | slot)
			return up, &h.set
		}
	}
	if u+1 < hubFlag {
		ix.word[vj].CompareAndSwap(0, uint32(u+1))
	}
	return up, nil
}

// verify recomputes every filled entry from adj, the snapshot's own copy of
// a vertex's list, and reports the first vertex whose entry differs.
func (ix *orientIndex) verify(adj func(v graph.V, buf []graph.V) []graph.V) (bad graph.V, ok bool) {
	var buf []graph.V
	for v := range ix.word {
		w := ix.word[v].Load()
		if w == 0 {
			continue
		}
		buf = adj(graph.V(v), buf)
		up := intersect.UpperSlice(buf, graph.V(v))
		u := len(buf) - len(up)
		set, isHub := intersect.NewDenseSet(up, nil)
		if !isHub {
			if w != uint32(u+1) {
				return graph.V(v), false
			}
			continue
		}
		if w&hubFlag == 0 {
			return graph.V(v), false
		}
		if h := ix.hub(w &^ hubFlag); h == nil || h.upper != u || !h.set.Equal(&set) {
			return graph.V(v), false
		}
	}
	return 0, true
}
