package intersect

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/graph"
)

// This file holds what a caller can know about a list ahead of the
// intersections it takes part in, and hand to CountIndexed with it: the
// list's DenseSet. The lcc snapshot keeps one per long, dense hub adjacency
// list — fetched again and again, Observation 3.1 — so that no edge pays for
// a search or a bit test the previous fetch already made.
//
// A caller's set is only ever a hint. Every use binds it to the list in hand
// and checks what it reads from it (see DenseSet for how far each check
// reaches); what fails falls back to the kernels that need no set, so the
// worst a set can do is cost time. It is immutable once built.

// DenseSet is a strictly increasing list as a bitmap with a rank index:
// words holds one bit per id over the 64-id words from the first id's to the
// last id's, and rank[i] the number of ids below word i, with the list's
// length as terminator. Membership of x is a bit test and its insertion
// point rank[w] + popcount(words[w] below x's bit) — no search, no access to
// the list — and the intersection with another bitmap is a popcount of ANDed
// words. Twelve bytes per spanned word.
//
// It has two owners. A Scratch keeps one over its stamp, whose words alias
// the stamp bitmap. The lcc snapshot keeps one for each hub list of at least
// DenseMinLen ids with at least one id per spanned word on average — the
// lists for which 64 ids per step beat one (denseSpan).
//
// The snapshot's reach a kernel from outside, so nothing in them is trusted.
// boundTo ties a set to the list in hand by length, first and last id and
// span, which also keeps every index in range. What is read is then checked:
// the AND adds up the set's words and compares with sum; a rank query
// requires popcount(words[w]) = rank[w+1] − rank[w] of the word it reads.
// Either catches any single flipped bit in what it covers, and a failed
// check redoes the pair without the set. What no use can see is a set that
// is consistent in itself and shares length and both ends with the list yet
// holds other ids: that takes matched flips, or a list changed under its
// index — Snapshot.Verify, which recomputes every set from the checksummed
// lists, is the check for those.
type DenseSet struct {
	first, last graph.V
	words       []uint64
	rank        []uint32 // len(words)+1
	sum         uint64   // of words, modulo 2^64
}

// DenseMinLen is the shortest list that gets a DenseSet: on the pull-rmat
// benchmark graph three quarters of all ids bit-tested against a stamp sit
// in fetched lists at least this long, in 285 lists of 32768.
const DenseMinLen = 256

// denseSpan returns the number of bitmap words list spans and whether list
// is long and dense enough for a DenseSet: one AND step per spanned word
// must not outnumber the one bit test per id it replaces.
func denseSpan(list []graph.V) (span int, ok bool) {
	n := len(list)
	if n < DenseMinLen || uint64(n) > math.MaxUint32 {
		return 0, false
	}
	span = int(list[n-1]>>6) - int(list[0]>>6) + 1
	return span, span >= 1 && span <= n
}

// NewDenseSet builds list's DenseSet, taking its arrays from mem (nil: from
// the heap, one allocation each); ok is false, and d the zero set, when
// denseSpan refuses the list or its ids do not amount to len(list) distinct
// bits inside the span (not an ascending set).
func NewDenseSet(list []graph.V, mem *Slab) (d DenseSet, ok bool) {
	span, ok := denseSpan(list)
	if !ok {
		return DenseSet{}, false
	}
	base := int(list[0] >> 6)
	words := mem.uint64s(span)
	for _, v := range list {
		if w := int(v>>6) - base; uint(w) < uint(span) {
			words[w] |= 1 << (v & 63)
		}
	}
	d = DenseSet{first: list[0], last: list[len(list)-1], words: words, rank: mem.uint32s(span + 1)}
	if d.fill() != len(list) {
		return DenseSet{}, false
	}
	return d, true
}

// fill derives rank and sum from words and returns the number of set bits.
func (d *DenseSet) fill() int {
	words, rank := d.words, d.rank[:len(d.words)+1]
	below, sum := 0, uint64(0)
	for i, w := range words {
		rank[i] = uint32(below)
		below += bits.OnesCount64(w)
		sum += w
	}
	rank[len(words)] = uint32(below)
	d.sum = sum
	return below
}

// Equal reports whether two sets hold the same header and arrays.
func (d *DenseSet) Equal(o *DenseSet) bool {
	return d.first == o.first && d.last == o.last && d.sum == o.sum &&
		slices.Equal(d.words, o.words) && slices.Equal(d.rank, o.rank)
}

// MemBytes is the footprint of the set's arrays.
func (d *DenseSet) MemBytes() int { return 8*len(d.words) + 4*len(d.rank) }

// DenseField names a part of a DenseSet for CorruptForTest.
type DenseField uint8

const (
	DenseWords DenseField = iota // words[i]
	DenseRank                    // rank[i]
	DenseSum                     // the recorded sum of words
	DenseLast                    // the header's last id
)

// CorruptForTest flips one bit of the named part — of element i for the
// arrays; which bit varies with i — and reports whether the part has such an
// element: the stand-in of the integrity tests for a memory fault in a set
// the kernels are handed from outside. Never call it on a set a run may be
// reading.
func (d *DenseSet) CorruptForTest(field DenseField, i int) bool {
	switch field {
	case DenseWords:
		if i >= len(d.words) {
			return false
		}
		d.words[i] ^= 1 << (i & 63)
	case DenseRank:
		if i >= len(d.rank) {
			return false
		}
		d.rank[i] ^= 1 << (i % 10)
	case DenseSum:
		d.sum ^= 1 << (i & 63)
	case DenseLast:
		d.last ^= 1 << (i & 31)
	}
	return true
}

// boundTo returns d if its header is that of a set over list — same length,
// first and last id, and arrays of the span those two imply — and nil
// otherwise. After it, word indices in [0, len(d.words)) are in range for
// words and rank[:+1].
func (d *DenseSet) boundTo(list []graph.V) *DenseSet {
	n, span := len(list), len(d.words)
	if span > 0 && n > 0 && len(d.rank) == span+1 &&
		d.first == list[0] && d.last == list[n-1] &&
		int(d.last>>6)-int(d.first>>6)+1 == span &&
		d.rank[0] == 0 && uint64(d.rank[span]) == uint64(n) {
		return d
	}
	return nil
}

// upperBound returns the number of ids of list that are ≤ x, from d, a set
// bound to list, when the word it reads passes its check, and by search
// otherwise.
func (d *DenseSet) upperBound(list []graph.V, x graph.V) int {
	w := int(x>>6) - int(d.first>>6)
	if w < 0 {
		return 0
	}
	if w >= len(d.words) {
		return len(list)
	}
	word, r := d.words[w], d.rank[w]
	if d.rank[w+1]-r != uint32(bits.OnesCount64(word)) {
		return upperBound(list, x)
	}
	return int(r) + bits.OnesCount64(word&(2<<(x&63)-1))
}

// Slab carves the arrays of the sets built with it out of chunks, so the
// owner of hundreds of sets allocates per chunk and not per set. A carved
// array is never moved or handed out twice, and lives as long as anything
// refers into its chunk. The zero value is ready; a nil *Slab allocates every
// array on its own. Not for concurrent use.
type Slab struct {
	u32   []uint32
	u64   []uint64
	bytes int
}

// slabChunkBytes is the size of a chunk. An array of more than a quarter of a
// chunk gets an allocation of its own, so a chunk's unused tail stays below
// that.
const slabChunkBytes = 64 << 10

// MemBytes is the size of everything the slab has allocated.
func (m *Slab) MemBytes() int { return m.bytes }

func (m *Slab) uint32s(n int) []uint32 {
	if m == nil {
		return make([]uint32, n)
	}
	return carve(&m.u32, &m.bytes, n, slabChunkBytes/4)
}

func (m *Slab) uint64s(n int) []uint64 {
	if m == nil {
		return make([]uint64, n)
	}
	return carve(&m.u64, &m.bytes, n, slabChunkBytes/8)
}

// carve cuts n elements off *free, replacing it with a fresh chunk of that
// many elements first when it runs short.
func carve[T any](free *[]T, bytes *int, n, chunk int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if n > chunk/4 {
		*bytes += n * size
		return make([]T, n)
	}
	if len(*free) < n {
		*bytes += chunk * size
		*free = make([]T, chunk)
	}
	out := (*free)[:n:n]
	*free = (*free)[n:]
	return out
}
