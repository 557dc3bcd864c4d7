package clampi

import (
	"fmt"
	"math"

	"repro/internal/rma"
)

// pairBytes is the one entry size OneSize models: a 16-byte (start, end)
// offset pair, what the LCC engine's C_offsets caches (§III-B-1).
const pairBytes = 16

// OneSize is an exact model of a Cache whose entries all have one size,
// pairBytes, and no score, under the default positional weight: it decides
// every access as such a Cache would, evicts the same entries in the same
// order, and reports the same Stats, without the allocator, the victim heap
// or the records.
//
// Why it is exact. Entries carve the buffer from offset 0, and an extent an
// eviction frees is refilled by the newcomer within the same insert (best
// fit prefers the hole, the lower offset on a tie with the tail), so at every
// decision the n entries tile [0, 16n) and the one free region is the tail
// of r = capacity − 16n bytes. The only positional credit is therefore the
// top entry's — the one at the highest offset — of 64·r/17; no entry's
// credit ever grows (n never shrinks short of a flush), so no key in the
// Cache's lazy heap exceeds its entry's current priority; and at a capacity
// eviction (r < 16) priorities are distinct, since ticks are unique and
// 64·r/17 is not an integer for 0 < r < 16. The heap's settled root is the
// true minimum: the LRU head, or the top entry less its credit, whichever is
// lower. A conflict victim comes from the Cache's own bucket scan. The
// newcomer takes the victim's place, or a new place on top.
//
// So an entry is named by its place: id i lives at [16(i−1), 16i), n is the
// top id, and ents[i] links it into the LRU list (ents[0] is the list's
// sentinel) and names its table slot. The table keeps keys and ticks. Like
// a Cache, a OneSize is single-owner and recyclable (Reset), and it stores
// no bytes.
type OneSize struct {
	index
	capacity int
	tick     uint64
	ents     []oneEntry
	stats    Stats
	owner

	// onEvict is Cache.onEvict's twin, for tests.
	onEvict func(conflict bool, key, tick uint64)
}

// oneEntry is one place of a OneSize: its neighbours in the LRU list, least
// recently used first, and its table slot.
type oneEntry struct{ prev, next, slot uint32 }

// NewOneSize models a Cache under cfg over window w in a world of ranks
// ranks.
func NewOneSize(w *rma.Window, ranks int, cfg Config) *OneSize {
	return new(OneSize).Reset(w, ranks, cfg)
}

// Reset binds the model to w's key geometry under cfg and empties it, tick
// and statistics included: Cache.Reset's state. The table keeps its arrays
// as Cache's does. The places, like Cache's record slab, start at one per
// bucket — the configuration's own estimate of the population, so that
// filling them leaves no trail of outgrown arrays — and grow by append;
// they are kept unless they are over four times what cfg can hold. It
// panics on a positional weight other than the default, which the model is
// not exact for, on a capacity that is not positive, and on a model that is
// mid-operation.
func (m *OneSize) Reset(w *rma.Window, ranks int, cfg Config) *OneSize {
	cfg = cfg.withDefaults()
	if cfg.PosWeight != 64 {
		panic(fmt.Sprintf("clampi: OneSize models the default positional weight 64, not %v", cfg.PosWeight))
	}
	if m.busy {
		panic("clampi: Reset of a cache that is mid-operation")
	}
	m.coder = windowCoder(w, ranks)
	m.capacity = cfg.Capacity
	buckets := max(cfg.Buckets, 1)
	most := min(buckets*max(cfg.Assoc, 1), m.capacity/pairBytes) + 1
	if hint := min(buckets+1, most); cap(m.ents) < hint || cap(m.ents) > 4*most {
		m.ents = make([]oneEntry, 0, hint)
	}
	m.empty(cfg.Buckets, cfg.Assoc)
	m.tick = 0
	m.stats = Stats{}
	return m
}

// Stats returns what Cache.Stats would: the n entries hold 16n bytes, and
// the one free region leaves no fragmentation.
func (m *OneSize) Stats() Stats {
	s := m.stats
	s.EntriesCached = int64(m.tab.n)
	s.BytesCached = pairBytes * int64(m.tab.n)
	return s
}

// Decide is Cache.Decide of an unscored pairBytes get under key k.
func (m *OneSize) Decide(k Key, first bool) Verdict {
	m.enter()
	v := Hit
	if slot := m.tab.lookupTouch(k, m.tick+1); slot >= 0 {
		m.tick++
		m.stats.Hits++
		m.stats.HitBytes += pairBytes
		id := m.tab.ents[slot]
		m.unlink(id)
		m.append(id)
	} else {
		if first {
			m.stats.CompulsoryMisses++
		}
		m.stats.Misses++
		m.stats.MissBytes += pairBytes
		m.insert(k)
		v = Miss
	}
	m.leave()
	return v
}

// insert is Cache.insert of an unscored pairBytes entry under k.
func (m *OneSize) insert(k Key) {
	if m.capacity < pairBytes {
		m.stats.RejectedInserts++
		return
	}
	m.tick++
	top := uint32(len(m.ents) - 1)
	credit := 64 * float64(m.capacity-pairBytes*int(top)) / (pairBytes + 1)
	var id uint32
	way := m.tab.freeWay(k)
	switch {
	case way < 0:
		// The bucket's entry of strictly least priority, in slot order.
		vPrio := math.Inf(1)
		a := uint32(m.tab.assoc)
		for i, e := range m.tab.ents[k.lane/2:][:a] {
			p := float64(m.tab.tick(k.lane + a + uint32(i)))
			if e == top {
				p -= credit
			}
			if p < vPrio {
				id, vPrio, way = e, p, i
			}
		}
		m.evict(id, true)
		m.stats.ConflictEvictions++
	case pairBytes*int(top+1) <= m.capacity:
		id = top + 1
		m.ents = append(m.ents, oneEntry{})
	default:
		id = m.ents[0].next
		if id != top && float64(m.tickOf(top))-credit < float64(m.tickOf(id)) {
			id = top
		}
		m.evict(id, false)
		m.stats.CapacityEvictions++
	}
	m.ents[id].slot, _ = m.tab.insertAt(k, way, id, m.tick)
	m.append(id)
	m.stats.Inserts++
}

// tickOf is the LRU tick of the entry at place id.
func (m *OneSize) tickOf(id uint32) uint64 {
	slot, a := m.ents[id].slot, uint32(m.tab.assoc)
	return m.tab.tick(slot + (slot/a+1)*a)
}

// evict empties place id's table slot and unlinks it; the caller refills it.
func (m *OneSize) evict(id uint32, conflict bool) {
	slot, a := m.ents[id].slot, uint32(m.tab.assoc)
	mi := slot + (slot/a+1)*a
	if m.onEvict != nil {
		m.onEvict(conflict, m.tab.lane[mi-a], m.tick)
	}
	m.tab.remove(slot, mi)
	m.unlink(id)
}

// unlink takes place id off the LRU list; append puts it at the tail, the
// most recently used end.
func (m *OneSize) unlink(id uint32) {
	e := m.ents[id]
	m.ents[e.prev].next, m.ents[e.next].prev = e.next, e.prev
}

func (m *OneSize) append(id uint32) {
	last := m.ents[0].prev
	m.ents[id].prev, m.ents[id].next = last, 0
	m.ents[last].next, m.ents[0].prev = id, id
}

// Flush empties the model, as Cache.Flush empties a cache.
func (m *OneSize) Flush() {
	m.empty(m.tab.buckets, m.tab.assoc)
	m.stats.Flushes++
}

// empty clears the table for the geometry and leaves the sentinel alone on
// the LRU list.
func (m *OneSize) empty(buckets, assoc int) {
	m.tab.clearFor(buckets, assoc)
	m.ents = append(m.ents[:0], oneEntry{})
}

// Degrade is Cache.Degrade: a flush and a degraded access.
func (m *OneSize) Degrade() {
	m.enter()
	m.stats.DegradedOps++
	m.Flush()
	m.leave()
}
