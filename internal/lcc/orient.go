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
//   - for an upper list of more than 32 ids, an intersect.Index over it:
//     a Directory, which places a key of adj(v_i) in the hub's list with one
//     load, or — for the few hundred lists long and dense enough — a
//     DenseSet, the list's own bitmap, which the kernels intersect with the
//     stamped adj(v_i) 64 ids a step and rank-query instead of searching.
//
// Entries are constants of the graph, filled by whichever rank first
// fetches the vertex, from the fetched list itself — every source of
// adj(v_j) (owner CSR, window view, cache hit, delegation replica, decode
// buffer) holds the same ids — and published with atomics, so concurrent
// runs share one index and a run's results do not depend on what ran
// before. Host memory only: 4 bytes per vertex, a 64-byte entry per hub
// (allocated a page at a time), and the indexes' arrays, carved from 64 KiB
// chunks (mem) — at most one byte per id under a Directory, twelve per
// spanned 64-id word (at most twelve per id) under a DenseSet; not counted
// by LocalBytes, freed with the snapshot.
//
// Nothing read from the index is trusted: upper validates the offset
// against the list in hand and the kernels treat the Index as a hint
// (intersect.Directory and intersect.DenseSet say what each use checks), so
// a damaged word or a list that changed under the index falls back to the
// searches. Snapshot.Verify recomputes every filled entry.
type orientIndex struct {
	// word[v] is 0 until v is filled, then 1 + upper offset, or hubFlag
	// plus the slot of v's hubEntry.
	word []atomic.Uint32

	// The hub entries, in pages so that a published slot never moves:
	// fillers write the next slot under mu and then publish it in word,
	// readers reach it through word's atomic load alone. A graph has at
	// most one hub per vertex, which sizes page. mem is where their
	// indexes' arrays come from, under mu like the slots.
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

// hubEntry is the index of a vertex whose upper list has an Index.
// Immutable once published; filled is false in the slots past the last one.
// Padded to 64 bytes: an edge reads one entry of a table too large for the
// first-level cache, and should miss on one line of it, not two.
type hubEntry struct {
	filled bool
	upper  int
	ix     intersect.Index
	_      [8]byte
}

func newOrientIndex(n int) *orientIndex {
	return &orientIndex{
		word: make([]atomic.Uint32, n),
		page: make([]atomic.Pointer[hubPage], n>>hubPageBits+1),
	}
}

// upper cuts list = adj(vj) down to the ids above vj and returns the
// Index over that upper list, nil when it has none. A nil index — the
// engines that run without a snapshot — searches, like every entry that
// fails validation.
func (ix *orientIndex) upper(vj graph.V, list []graph.V) ([]graph.V, *intersect.Index) {
	if ix == nil || int(vj) >= len(ix.word) {
		return intersect.UpperSlice(list, vj), nil
	}
	w := ix.word[vj].Load()
	if w == 0 {
		return ix.fill(vj, list)
	}
	u := int(w) - 1
	var upIx *intersect.Index
	if w&hubFlag != 0 {
		h := ix.hub(w &^ hubFlag)
		if h == nil {
			return intersect.UpperSlice(list, vj), nil
		}
		u, upIx = h.upper, &h.ix
	}
	// u is the upper offset of an ascending list iff its two neighbours say so.
	if uint(u) > uint(len(list)) || (u > 0 && list[u-1] > vj) || (u < len(list) && list[u] <= vj) {
		return intersect.UpperSlice(list, vj), nil
	}
	return list[u:], upIx
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
	if h := &pg[slot&(1<<hubPageBits-1)]; h.filled {
		return h
	}
	return nil
}

// fill computes vj's entry from list, publishes it unless another rank got
// there first, and returns what upper would.
func (ix *orientIndex) fill(vj graph.V, list []graph.V) ([]graph.V, *intersect.Index) {
	up := intersect.UpperSlice(list, vj)
	u := len(list) - len(up)
	if len(up) >= intersect.MinIndexLen {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if ix.word[vj].Load() != 0 {
			return up, nil // another rank published meanwhile; this one call searches
		}
		if upIx, ok := intersect.NewIndex(up, &ix.mem); ok {
			slot := ix.hubs
			pg := ix.page[slot>>hubPageBits].Load()
			if pg == nil {
				pg = new(hubPage)
				ix.page[slot>>hubPageBits].Store(pg)
			}
			h := &pg[slot&(1<<hubPageBits-1)]
			*h = hubEntry{filled: true, upper: u, ix: upIx}
			ix.hubs++
			ix.word[vj].Store(hubFlag | slot)
			return up, &h.ix
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
		upIx, isHub := intersect.NewIndex(up, nil)
		if !isHub {
			if w != uint32(u+1) {
				return graph.V(v), false
			}
			continue
		}
		if w&hubFlag == 0 {
			return graph.V(v), false
		}
		if h := ix.hub(w &^ hubFlag); h == nil || h.upper != u || !h.ix.Equal(&upIx) {
			return graph.V(v), false
		}
	}
	return 0, true
}
