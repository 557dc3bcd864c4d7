package clampi

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rma"
)

// Coord is one get's (target, offset, size) coordinate.
type Coord struct{ Target, Offset, Size int }

// Resident is the residency law of one cache geometry and the cache it lets
// a rank run without CLaMPI's table, allocator and victim heap.
//
// The law (Fits): a set of distinct coordinates, each accessed some number
// of times, never needs a capacity eviction when every size is in
// (0, Capacity] and inside the window geometry and B ≤ Capacity, where B is
// the sum of the sizes plus (accesses − 1)·size over the keys of over-full
// buckets — buckets (h % Buckets under the pinned FNV hash) that receive
// more than Assoc of the keys. Why: a Cache carves each insert best-fit from
// a hole below the buffer's high-water mark or from the tail above it, so
// the mark never exceeds the bytes inserted so far. A key of a bucket that
// is not over-full is inserted once and never evicted; one of an over-full
// bucket is inserted at most once per access. So the tail always has room,
// and the victim heap is never read.
//
// The cache (Decide, Stats): a rank whose accesses the law admits decides
// them here instead, with a Cache's verdicts, Stats and conflict-eviction
// order (FuzzResidentLaw). A key of a bucket that is not over-full is
// decided by first touch: its first access misses and inserts it, every
// later one hits. Only the keys of over-full buckets are simulated. The
// model keeps each such bucket's ways with tick and score, the cache's tick
// (one per decided access), and the tail's start with the holes below it,
// coalesced: they give best-fit placement and the positional credit that
// picks an LRU conflict victim. Nothing else is built. Like a Cache, a
// Resident is single-owner and recyclable (Reset).
type Resident struct {
	coder     keyCoder
	magic     divMagic
	capacity  int
	assoc     int
	posWeight float64

	tick  uint64
	top   int            // the tail's start: [top, capacity) is free
	used  int            // bytes of the entries
	holes []extent       // the free regions below top, coalesced
	crowd map[uint64]int // an over-full bucket's first way in ways
	ways  []crowdWay     // assoc per over-full bucket, in slot order
	stats Stats

	// onEvict is Cache.onEvict's twin, for tests.
	onEvict func(conflict bool, key, tick uint64)
}

// extent is a byte range of the simulated buffer.
type extent struct{ off, size int }

// crowdWay is one way of an over-full bucket: the packed key (0: empty),
// the LRU tick and score a Cache keeps for it, and its extent.
type crowdWay struct {
	key   uint64
	tick  uint64
	score float64
	extent
}

// Reset makes r the law and the empty cache of cfg over window w in a world
// of ranks ranks — the key geometry Cache.Reset derives — keeping its
// arrays. It panics on a capacity that is not positive, as Cache.Reset
// does. Returns r.
func (r *Resident) Reset(cfg Config, w *rma.Window, ranks int) *Resident {
	cfg = cfg.withDefaults()
	if r.crowd == nil {
		r.crowd = map[uint64]int{}
	}
	clear(r.crowd)
	*r = Resident{
		coder:     windowCoder(w, ranks),
		magic:     newDivMagic(uint64(max(cfg.Buckets, 1))), // table.clearFor's geometry
		capacity:  cfg.Capacity,
		assoc:     max(cfg.Assoc, 1),
		posWeight: cfg.PosWeight,
		holes:     r.holes[:0],
		crowd:     r.crowd,
		ways:      r.ways[:0],
	}
	return r
}

// Fits applies the law to the distinct coordinates keys yields, stopping
// them at the first whose size is outside (0, Capacity] or whose coordinate
// is outside the window geometry. When the sizes sum to at most the
// capacity and some bucket is over-full, it calls accesses once with the
// yield-order indices of those buckets' keys, ascending, which returns how
// often each of them may be accessed, in the same order; then it walks keys
// again for their sizes. scratch is working memory for the bucket census,
// eight bytes a key; Fits returns it, grown, for the next call.
func (r *Resident) Fits(keys func(yield func(Coord) bool), accesses func(crowded []int) []int, scratch []uint64) (bool, []uint64) {
	scratch = scratch[:0]
	room, fits := r.capacity, true
	keys(func(k Coord) bool {
		fits = k.Size > 0 && k.Size <= room && r.coder.fits(k.Target, k.Offset, k.Size)
		if fits {
			room -= k.Size
			// A bucket index is below 2^31 where a Cache can be built:
			// table.clearFor refuses more lane words.
			scratch = append(scratch, r.magic.mod(r.coder.hash(k.Target, k.Offset, k.Size))<<32|uint64(len(scratch)))
		}
		return fits
	})
	if !fits {
		return false, scratch
	}
	slices.Sort(scratch)
	var crowded []int
	for i := 0; i < len(scratch); {
		j := i + 1
		for j < len(scratch) && scratch[j]>>32 == scratch[i]>>32 {
			j++
		}
		if j-i > r.assoc {
			for _, x := range scratch[i:j] {
				crowded = append(crowded, int(uint32(x)))
			}
		}
		i = j
	}
	if len(crowded) == 0 {
		return true, scratch
	}
	slices.Sort(crowded)
	acc := accesses(crowded)
	i, j := 0, 0
	keys(func(k Coord) bool {
		if i == crowded[j] {
			room -= max(acc[j]-1, 0) * k.Size
			j++
		}
		i++
		return j < len(crowded) && room >= 0
	})
	return room >= 0, scratch
}

// Decide is the verdict on a get of (target, offset, size) with score (NaN:
// none), as Cache.Decide makes it. first says whether this is the key's
// first access, and crowded whether its bucket is over-full in the set Fits
// admitted. A coordinate outside the window geometry panics as KeyOf does.
func (r *Resident) Decide(target, offset, size int, score float64, first, crowded bool) Verdict {
	if !r.coder.fits(target, offset, size) {
		panic(outsideGeometry(target, offset, size))
	}
	r.tick++
	if crowded {
		return r.decideCrowded(target, offset, size, score, first)
	}
	if !first {
		r.stats.Hits++
		r.stats.HitBytes += int64(size)
		return Hit
	}
	r.stats.Misses++
	r.stats.CompulsoryMisses++
	r.stats.MissBytes += int64(size)
	r.place(size)
	r.stats.Inserts++
	return Miss
}

// decideCrowded is Cache.Decide for a key of an over-full bucket: a hit
// touches its way, a miss inserts it, evicting the bucket's entry of
// strictly least priority in slot order when no way is free, or is
// rejected when that entry outranks the newcomer.
func (r *Resident) decideCrowded(target, offset, size int, score float64, first bool) Verdict {
	key := r.coder.pack(target, offset, size)
	ways := r.bucket(r.magic.mod(r.coder.hash(target, offset, size)))
	for i := range ways {
		if ways[i].key == key {
			ways[i].tick = r.tick
			r.stats.Hits++
			r.stats.HitBytes += int64(size)
			return Hit
		}
	}
	if first {
		r.stats.CompulsoryMisses++
	}
	r.stats.Misses++
	r.stats.MissBytes += int64(size)
	way := slices.IndexFunc(ways, func(w crowdWay) bool { return w.key == 0 })
	if way < 0 {
		newPrio := float64(r.tick)
		if !math.IsNaN(score) {
			newPrio = score
		}
		vPrio := math.Inf(1)
		for i := range ways {
			if p := r.priority(&ways[i]); p < vPrio {
				way, vPrio = i, p
			}
		}
		if way < 0 || vPrio >= newPrio {
			r.stats.RejectedInserts++
			return Miss
		}
		if r.onEvict != nil {
			r.onEvict(true, ways[way].key, r.tick)
		}
		r.free(ways[way].extent)
		r.stats.ConflictEvictions++
	}
	ways[way] = crowdWay{key: key, tick: r.tick, score: score, extent: extent{r.place(size), size}}
	r.stats.Inserts++
	return Miss
}

// bucket returns the ways of over-full bucket b, empty on its first access.
func (r *Resident) bucket(b uint64) []crowdWay {
	at, ok := r.crowd[b]
	if !ok {
		at = len(r.ways)
		r.crowd[b] = at
		r.ways = append(r.ways, make([]crowdWay, r.assoc)...)
	}
	return r.ways[at : at+r.assoc]
}

// priority is Cache.priority of a way's entry: its score, or its tick less
// the positional credit of the free bytes around it.
func (r *Resident) priority(w *crowdWay) float64 {
	if !math.IsNaN(w.score) {
		return w.score
	}
	mergeable := float64(r.adjacentFree(w.extent))
	return float64(w.tick) - r.posWeight*mergeable/float64(w.size+1)
}

// place carves size bytes where a Cache's best fit does — from the least
// free region by (size, offset) that holds them: a hole, or the tail above
// them all — and returns their offset. The law leaves the tail room for
// every insert; a caller past it panics here.
func (r *Resident) place(size int) int {
	r.used += size
	best := -1
	for i, h := range r.holes {
		if h.size >= size && (best < 0 || regionLess(h.size, h.off, r.holes[best].size, r.holes[best].off)) {
			best = i
		}
	}
	if tail := r.capacity - r.top; best < 0 || tail >= size && tail < r.holes[best].size {
		if tail < size {
			panic(fmt.Sprintf("clampi: a %d-byte insert needs a capacity eviction: accesses past the residency law", size))
		}
		r.top += size
		return r.top - size
	}
	h := &r.holes[best]
	off := h.off
	h.off, h.size = h.off+size, h.size-size
	if h.size == 0 {
		*h = r.holes[len(r.holes)-1]
		r.holes = r.holes[:len(r.holes)-1]
	}
	return off
}

// free returns an evicted entry's extent to the free regions as the
// allocator does, coalesced with the holes around it, and with the tail when
// it reaches it.
func (r *Resident) free(e extent) {
	r.used -= e.size
	for i := 0; i < len(r.holes); {
		if h := r.holes[i]; h.off+h.size == e.off || e.off+e.size == h.off {
			e = extent{min(e.off, h.off), e.size + h.size}
			r.holes[i] = r.holes[len(r.holes)-1]
			r.holes = r.holes[:len(r.holes)-1]
			continue
		}
		i++
	}
	if e.off+e.size == r.top {
		r.top = e.off
	} else {
		r.holes = append(r.holes, e)
	}
}

// adjacentFree is allocator.adjacentFree of an entry's extent: the free
// bytes that border it on either side.
func (r *Resident) adjacentFree(e extent) int {
	adj := 0
	for _, h := range r.holes {
		if h.off+h.size == e.off || e.off+e.size == h.off {
			adj += h.size
		}
	}
	if e.off+e.size == r.top {
		adj += r.capacity - r.top
	}
	return adj
}

// Stats returns what Cache.Stats would: every insert that no conflict
// evicted is still cached, and the free regions are the tail and the holes.
func (r *Resident) Stats() Stats {
	s := r.stats
	s.EntriesCached = s.Inserts - s.ConflictEvictions
	s.BytesCached = int64(r.used)
	if free := r.capacity - r.used; free > 0 {
		largest := r.capacity - r.top
		for _, h := range r.holes {
			largest = max(largest, h.size)
		}
		s.FragmentationRatio = 1 - float64(largest)/float64(free)
	}
	return s
}

// outsideGeometry is the panic of a coordinate no key can pack.
func outsideGeometry(target, offset, size int) string {
	return fmt.Sprintf("clampi: get (target %d, offset %d, size %d) outside window geometry", target, offset, size)
}
