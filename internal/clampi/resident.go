package clampi

import (
	"fmt"
	"slices"

	"repro/internal/rma"
)

// Coord is one get's (target, offset, size) coordinate.
type Coord struct{ Target, Offset, Size int }

// Resident is the residency law of one cache geometry and the cache it lets
// a rank run without CLaMPI's bookkeeping.
//
// The law (Fits): a set of distinct coordinates fits a cache at once when
// every size is in (0, Capacity] and inside the window geometry, the sizes
// sum to at most the capacity (never negative), and no bucket — h % Buckets
// under the pinned FNV hash — receives more than Assoc of them. Then, with
// no Degrade, Decide on a Cache over any access sequence drawn from the set
// is first-touch: the first access to a key misses and inserts it (a
// compulsory miss, carved from the one free region without an eviction, its
// bucket never full), and every later one hits, because nothing is ever
// evicted, rejected or flushed. The final Stats are the tally Stats reports.
//
// The cache (Decide, Stats): a rank whose accesses the law admits decides
// them here instead, from whether each is its key's first; nothing of a
// Cache is built.
type Resident struct {
	coder    keyCoder
	magic    divMagic
	capacity int
	assoc    int
	stats    Stats
}

// NewResident builds the law for cfg over window w in a world of ranks
// ranks — the key geometry Cache.Reset derives — with an empty tally.
func NewResident(cfg Config, w *rma.Window, ranks int) Resident {
	cfg = cfg.withDefaults()
	buckets := max(cfg.Buckets, 1) // table.clearFor's geometry
	return Resident{
		coder:    windowCoder(w, ranks),
		magic:    newDivMagic(uint64(buckets)),
		capacity: cfg.Capacity,
		assoc:    max(cfg.Assoc, 1),
	}
}

// Fits reports whether the distinct coordinates keys yields fit the cache
// at once; it stops them at the first that cannot. scratch is working memory
// for the bucket census, four bytes a key; Fits returns it, grown, for the
// next call.
func (r *Resident) Fits(keys func(yield func(Coord) bool), scratch []uint32) (bool, []uint32) {
	if r.capacity < 0 {
		return false, scratch // a negative buffer reports fragmentation even empty
	}
	scratch = scratch[:0]
	total, fits := 0, true
	keys(func(k Coord) bool {
		fits = k.Size > 0 && k.Size <= r.capacity-total && r.coder.fits(k.Target, k.Offset, k.Size)
		if fits {
			total += k.Size
			// A bucket index is below 2^31 where a Cache can be built:
			// table.clearFor refuses more lane words.
			scratch = append(scratch, uint32(r.magic.mod(r.coder.hash(k.Target, k.Offset, k.Size))))
		}
		return fits
	})
	if !fits {
		return false, scratch
	}
	slices.Sort(scratch)
	for i := r.assoc; i < len(scratch); i++ {
		if scratch[i] == scratch[i-r.assoc] {
			return false, scratch
		}
	}
	return true, scratch
}

// Decide is a resident cache's verdict on a get of (target, offset, size),
// first saying whether it is the key's first access: a compulsory miss, or
// a hit. A coordinate outside the window geometry panics as KeyOf does.
func (r *Resident) Decide(target, offset, size int, first bool) Verdict {
	if !r.coder.fits(target, offset, size) {
		panic(outsideGeometry(target, offset, size))
	}
	if first {
		r.stats.Misses++
		r.stats.CompulsoryMisses++
		r.stats.Inserts++
		r.stats.MissBytes += int64(size)
		return Miss
	}
	r.stats.Hits++
	r.stats.HitBytes += int64(size)
	return Hit
}

// Stats returns the tally in Cache.Stats' shape: every miss inserted an
// entry that is still cached, and the one free region is what is left.
func (r *Resident) Stats() Stats {
	s := r.stats
	s.EntriesCached, s.BytesCached = s.Inserts, s.MissBytes
	return s
}

// outsideGeometry is the panic of a coordinate no key can pack.
func outsideGeometry(target, offset, size int) string {
	return fmt.Sprintf("clampi: get (target %d, offset %d, size %d) outside window geometry", target, offset, size)
}
