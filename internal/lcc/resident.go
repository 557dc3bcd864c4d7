package lcc

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clampi"
	"repro/internal/graph"
)

// A cache is resident on a rank when every list the rank can fetch through
// it fits at once (clampi.Resident's law): its accesses are then first-touch
// — a vertex's first fetch misses, every later one hits, nothing is evicted —
// so the rank decides them with its first-touch map (firstTouch) instead of
// CLaMPI's table, heap and allocator, and reports the same statistics.
// Whether a rank's caches are resident depends on the snapshot and the two
// configurations only, so a snapshot checks each rank once per pair of
// configurations (worker.checkResident) and keeps the answers (residency). A
// run with cache faults never uses them: a fault flushes the cache, so a
// later access to a list it held misses again, where first touch would say
// hit.

// Answer bits of one rank id: checked, then which caches are resident.
const (
	ansChecked = 1 << iota
	ansOff
	ansAdj
)

// residency is a snapshot's kept answers: those of the last configurations
// a run asked for, replaced when a run asks for others.
type residency struct {
	mu  sync.Mutex
	set *residentSet
}

type residentKey struct {
	off, adj clampi.Config
}

// residentSet holds the answers of one pair of configurations, per rank: 0
// until that rank's first run has checked.
type residentSet struct {
	key residentKey
	ans []atomic.Uint32
}

// answers returns the set for k over the given number of ranks, replacing
// the kept one when its key is another.
func (rs *residency) answers(k residentKey, ranks int) *residentSet {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.set == nil || rs.set.key != k {
		rs.set = &residentSet{key: k, ans: make([]atomic.Uint32, ranks)}
	}
	return rs.set
}

// touchMap is a caching rank's pooled host memory: an n-bit first-touch map
// per cache (firstTouch), the first of which the residency check uses
// beforehand to collect the rank's distinct targets, and the check's bucket
// census.
type touchMap struct {
	off, adj []uint64
	buckets  []uint32
}

// residentCaches says which of w's caches are resident under the run's
// configurations, from the snapshot's answers or, on the rank's first run
// under them, by checking with the rank's first-touch maps and keeping the
// answer.
func (s *Snapshot) residentCaches(w *worker, offCfg, adjCfg clampi.Config) (off, adj bool) {
	ans := &s.residency.answers(residentKey{offCfg, adjCfg}, s.ranks).ans[w.r.ID()]
	a := ans.Load()
	if a == 0 {
		a = w.checkResident(w.touch)
		ans.Store(a)
	}
	return a&ansOff != 0, a&ansAdj != 0
}

// checkResident applies the residency law of each cache the rank has to its
// remote lists: the targets of every arc of its slot that lie in another
// slot, once each. That covers what any engine's walk fetches, so the answer
// holds for every run on the snapshot. A target the snapshot cannot resolve
// to a record makes neither cache resident: the walk faults on it as it
// always did. tm's map is left clear.
func (w *worker) checkResident(tm *touchMap) uint32 {
	seen := tm.off
	defer clear(seen)
	defer func() { w.scanLi, w.scanDecLi = 0, -1 }()
	for li := range w.lc.NumLocal() {
		w.scanLi = li
		adj := w.scanAdj()
		for _, vj := range adj {
			if int(vj) >= len(w.resolve) {
				return ansChecked
			}
			slot, lj := unpackResolve(w.resolve[vj])
			if slot == w.slot {
				continue
			}
			if _, _, ok := w.record(slot, lj); !ok {
				return ansChecked
			}
			seen[vj/64] |= 1 << (vj % 64)
		}
	}
	coords := func(adj bool) func(yield func(clampi.Coord) bool) {
		return func(yield func(clampi.Coord) bool) {
			for i, word := range seen {
				for ; word != 0; word &= word - 1 {
					slot, li := unpackResolve(w.resolve[i*64+bits.TrailingZeros64(word)])
					k := clampi.Coord{Target: slot, Offset: 16 * li, Size: 16}
					if adj {
						start, end, _ := w.record(slot, li)
						k.Offset, k.Size = 4*int(start), 4*int(end-start)
					}
					if !yield(k) {
						return
					}
				}
			}
		}
	}
	a := uint32(ansChecked)
	var fits bool
	if w.offOn {
		if fits, tm.buckets = w.offRes.Fits(coords(false), tm.buckets); fits {
			a |= ansOff
		}
	}
	if w.adjOn {
		if fits, tm.buckets = w.adjRes.Fits(coords(true), tm.buckets); fits {
			a |= ansAdj
		}
	}
	return a
}

// firstTouch sets v's bit in a cache's first-touch map and reports whether
// it was clear: whether this is the first access to v's key that reaches
// the cache, a compulsory miss if it misses. A vertex has one key in each
// cache; a cache's bit is set only by an access the cache decides, so a
// degraded access or a flush leaves what the cache has seen as it was.
func firstTouch(bits []uint64, v graph.V) bool {
	word, bit := &bits[v/64], uint64(1)<<(v%64)
	first := *word&bit == 0
	*word |= bit
	return first
}

// adjTouchVertex is the vertex whose C_adj first-touch bit stands for the
// empty list of vj, local index li of slot, at start: the slot's first
// vertex with that start. Offsets do not decrease along a slot, and a
// non-empty list moves the next start past its own, so the vertices with
// that start are a run of empty lists (and perhaps one non-empty list after
// them): one key, one bit.
func (w *worker) adjTouchVertex(vj graph.V, slot, li int, start uint64) graph.V {
	off := w.locals[slot].Offsets
	first := sort.Search(li, func(x int) bool { return off[x] >= start })
	if first == li {
		return vj
	}
	return w.pt.VertexAt(slot, first)
}
