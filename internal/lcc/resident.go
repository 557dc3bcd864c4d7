package lcc

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clampi"
	"repro/internal/graph"
)

// A cache is resident on a rank when no insert of the rank's accesses can
// need a capacity eviction (clampi.Resident's law, over every list the rank
// can fetch through it, each as often as the rank's arcs point at it). The
// rank then decides it with clampi.Resident instead of CLaMPI's table,
// victim heap and allocator, and reports the same statistics: a list whose
// key shares no over-full bucket by its first-touch bit (firstTouch) — its
// first fetch misses, every later one hits — and one that does through the
// Resident's model of its bucket (crowded). Whether a rank's caches are
// resident, and which vertices are crowded, depends on the snapshot and the
// two configurations only, so a snapshot checks each rank once per pair of
// configurations (worker.checkResident) and keeps the answers (residency).

// residency is a snapshot's kept answers: those of the last configurations
// a run asked for, replaced when a run asks for others.
type residency struct {
	mu  sync.Mutex
	set *residentSet
}

type residentKey struct {
	off, adj clampi.Config
}

// residentSet holds the answers of one pair of configurations, per rank: nil
// until that rank's first run has checked.
type residentSet struct {
	key residentKey
	ans []atomic.Pointer[rankAnswer]
}

// rankAnswer is one rank's answer: which caches are resident, and for each
// the vertices whose keys fall in its over-full buckets, ascending.
type rankAnswer struct {
	off, adj           bool
	offCrowd, adjCrowd []graph.V
}

// answers returns the set for k over the given number of ranks, replacing
// the kept one when its key is another.
func (rs *residency) answers(k residentKey, ranks int) *residentSet {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.set == nil || rs.set.key != k {
		rs.set = &residentSet{key: k, ans: make([]atomic.Pointer[rankAnswer], ranks)}
	}
	return rs.set
}

// touchMap is a caching rank's pooled host memory: per cache, an n-bit
// first-touch map (firstTouch), an n-bit map of its crowded vertices and
// its Resident; and the residency check's working memory, its distinct
// targets and bucket census. The check uses the first first-touch map
// beforehand to collect the targets.
type touchMap struct {
	off, adj           []uint64
	offCrowd, adjCrowd []uint64
	offRes, adjRes     clampi.Resident
	targets            []graph.V
	census             []uint64
}

// residentCaches returns the answer for w's rank under the run's
// configurations, from the snapshot's answers or, on the rank's first run
// under them, by checking with the rank's first-touch maps and keeping it.
func (s *Snapshot) residentCaches(w *worker, offCfg, adjCfg clampi.Config) *rankAnswer {
	ans := &s.residency.answers(residentKey{offCfg, adjCfg}, s.ranks).ans[w.r.ID()]
	a := ans.Load()
	if a == nil {
		a = w.checkResident(w.touch)
		ans.Store(a)
	}
	return a
}

// checkResident applies the residency law of each cache the rank has to its
// remote lists: the targets of every arc of its slot that lie in another
// slot, once each, accessed at most once per such arc. That covers what any
// engine's walk fetches, so the answer holds for every run on the snapshot.
// A target the snapshot cannot resolve to a record makes neither cache
// resident: the walk faults on it as it always did. tm's maps are left
// clear.
func (w *worker) checkResident(tm *touchMap) *rankAnswer {
	a := &rankAnswer{}
	seen := tm.off
	defer clear(seen)
	defer func() { w.scanLi, w.scanDecLi = 0, -1 }()
	for li := range w.lc.NumLocal() {
		w.scanLi = li
		for _, vj := range w.scanAdj() {
			if int(vj) >= len(w.resolve) {
				return a
			}
			slot, lj := unpackResolve(w.resolve[vj])
			if slot == w.slot {
				continue
			}
			if _, _, ok := w.record(slot, lj); !ok {
				return a
			}
			seen[vj/64] |= 1 << (vj % 64)
		}
	}
	tm.targets = tm.targets[:0]
	for i, word := range seen {
		for ; word != 0; word &= word - 1 {
			tm.targets = append(tm.targets, graph.V(i*64+bits.TrailingZeros64(word)))
		}
	}
	law := func(res *clampi.Resident, adj bool) (bool, []graph.V) {
		var crowd []graph.V
		fits, census := res.Fits(func(yield func(clampi.Coord) bool) {
			for _, vj := range tm.targets {
				slot, li := unpackResolve(w.resolve[vj])
				k := clampi.Coord{Target: slot, Offset: 16 * li, Size: 16}
				if adj {
					start, end, _ := w.record(slot, li)
					k.Offset, k.Size = 4*int(start), 4*int(end-start)
				}
				if !yield(k) {
					return
				}
			}
		}, func(idx []int) []int {
			crowd = make([]graph.V, len(idx))
			for i, x := range idx {
				crowd[i] = tm.targets[x]
			}
			return w.arcsTo(crowd)
		}, tm.census)
		tm.census = census
		if !fits {
			return false, nil
		}
		return true, crowd
	}
	if w.offOn {
		a.off, a.offCrowd = law(w.offRes, false)
	}
	if w.adjOn {
		a.adj, a.adjCrowd = law(w.adjRes, true)
	}
	return a
}

// arcsTo counts, for each of the ascending vertices vs, the arcs of the
// rank's slot that point at it: how often a walk may fetch its list.
func (w *worker) arcsTo(vs []graph.V) []int {
	n := make([]int, len(vs))
	for li := range w.lc.NumLocal() {
		w.scanLi = li
		for _, vj := range w.scanAdj() {
			if i, ok := slices.BinarySearch(vs, vj); ok {
				n[i]++
			}
		}
	}
	return n
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

// isSet reports whether v's bit is set in an n-bit map; setBits sets the
// bits of vs.
func isSet(bits []uint64, v graph.V) bool { return bits[v/64]&(1<<(v%64)) != 0 }

func setBits(bits []uint64, vs []graph.V) {
	for _, v := range vs {
		bits[v/64] |= 1 << (v % 64)
	}
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
