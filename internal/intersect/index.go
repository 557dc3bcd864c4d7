package intersect

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/graph"
)

// This file holds what a caller can know about a list ahead of the
// intersections it takes part in, and hand to CountIndexed with it: an Index
// in one of two forms. The lcc snapshot keeps one per hub adjacency list —
// fetched again and again, Observation 3.1 — so that no edge pays for a
// search the previous fetch already made.
//
// An Index is only ever a hint. Every use binds it to the list in hand and
// checks what it reads from it (see Directory and DenseSet for how far each
// check reaches); what fails falls back to the kernels that need no index,
// so the worst an index can do is cost time. It is immutable once built.

// Index is a Directory or a DenseSet over one strictly increasing list,
// never both: NewIndex picks the form from the list's length and density.
// The directory, which most indexed lists get, is held by value and the set
// by reference, so that an owner's table of indexes stays small.
type Index struct {
	dir Directory
	set *DenseSet
}

// MinIndexLen is the length of the shortest list NewIndex indexes: at or
// below fingerTailLen ids a search is one table load per key already.
const MinIndexLen = fingerTailLen + 1

// NewIndex indexes list, taking the index's arrays from mem (nil: from the
// heap, one allocation each). ok is false for lists shorter than
// MinIndexLen and for lists that are not ascending.
func NewIndex(list []graph.V, mem *Slab) (ix Index, ok bool) {
	if set, ok := newDenseSet(list, mem); ok {
		return Index{set: set}, true
	}
	dir, ok := newDirectory(list, mem)
	return Index{dir: dir}, ok
}

// Dense reports whether the index is a DenseSet.
func (ix *Index) Dense() bool { return ix.set != nil }

// Equal reports whether two indexes hold the same form and content.
func (ix *Index) Equal(o *Index) bool {
	if ix.dir.base != o.dir.base || ix.dir.shift != o.dir.shift || !slices.Equal(ix.dir.starts, o.dir.starts) {
		return false
	}
	a, b := ix.set, o.set
	if a == nil || b == nil {
		return a == b
	}
	return a.first == b.first && a.last == b.last && a.sum == b.sum &&
		slices.Equal(a.words, b.words) && slices.Equal(a.rank, b.rank)
}

// MemBytes is the footprint of the index's arrays.
func (ix *Index) MemBytes() int {
	if ix.set != nil {
		return 8*len(ix.set.words) + 4*len(ix.set.rank)
	}
	return 4 * len(ix.dir.starts)
}

// directory returns the index's Directory form, nil if it has another or ix
// is nil.
func (ix *Index) directory() *Directory {
	if ix == nil || ix.dir.starts == nil {
		return nil
	}
	return &ix.dir
}

// dense returns the index's DenseSet form if its header matches list, nil
// if ix is nil, has the other form, or was built over some other list.
func (ix *Index) dense(list []graph.V) *DenseSet {
	if ix == nil || ix.set == nil {
		return nil // decided inline: most lists have no set
	}
	return ix.set.boundTo(list)
}

// Directory is a bucket index over one strictly increasing list: the id
// range [first, last] cut into equal power-of-two buckets, about one per
// four ids, with starts[b] the number of ids below bucket b. A key's
// insertion point is then one load plus a look at the few ids sharing its
// bucket, instead of a search over the list.
//
// depthBinary takes a start from it when the ids around that position
// confirm it and gallops otherwise, so a directory built from another list,
// or damaged in memory, cannot change a count or a charge. It costs at most
// one byte per indexed id.
type Directory struct {
	base   graph.V
	shift  uint8
	starts []uint32 // one per bucket plus the list length as terminator
}

// newDirectory indexes list. Lists shorter than MinIndexLen get none (ok
// false): depthBinary is never reached with them as the tree.
func newDirectory(list []graph.V, mem *Slab) (d Directory, ok bool) {
	n := len(list)
	if n < MinIndexLen || uint64(n) > math.MaxUint32 || list[n-1] < list[0] {
		return Directory{}, false
	}
	first := list[0]
	span := uint64(list[n-1] - first)
	// At most n/4 words in starts: n/4-1 buckets and the terminator.
	shift := uint8(0)
	for span>>shift >= uint64(n/4-1) {
		shift++
	}
	nb := int(span>>shift) + 1
	starts := mem.uint32s(nb + 1)
	b := 0
	for i, v := range list {
		// An id below first (the list is not ascending) wraps to a huge
		// bucket and the loop runs out of buckets early; harmless.
		for vb := uint64(v-first) >> shift; b < nb && uint64(b) <= vb; b++ {
			starts[b] = uint32(i)
		}
	}
	for ; b <= nb; b++ {
		starts[b] = uint32(n)
	}
	return Directory{base: first, shift: shift, starts: starts}, true
}

// DenseSet is a strictly increasing list as a bitmap with a rank index:
// words holds one bit per id over the 64-id words from the first id's to the
// last id's, and rank[i] the number of ids below word i, with the list's
// length as terminator. Membership of x is a bit test and its insertion
// point rank[w] + popcount(words[w] below x's bit) — no search, no access to
// the list — and the intersection with another bitmap is a popcount of ANDed
// words. Twelve bytes per spanned word.
//
// It has two owners. A Scratch keeps one over its stamp, whose words alias
// the stamp bitmap. The lcc snapshot keeps one, in an Index, for each hub
// list of at least denseMinLen ids with at least one id per spanned word on
// average — the lists for which 64 ids per step beat one (denseSpan).
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

// denseMinLen is the shortest list that gets a DenseSet: on the pull-rmat
// benchmark graph three quarters of all ids bit-tested against a stamp sit
// in fetched lists at least this long, in 285 lists of 32768.
const denseMinLen = 256

// denseSpan returns the number of bitmap words list spans and whether list
// is long and dense enough for a DenseSet: one AND step per spanned word
// must not outnumber the one bit test per id it replaces.
func denseSpan(list []graph.V) (span int, ok bool) {
	n := len(list)
	if n < denseMinLen || uint64(n) > math.MaxUint32 {
		return 0, false
	}
	span = int(list[n-1]>>6) - int(list[0]>>6) + 1
	return span, span >= 1 && span <= n
}

// newDenseSet builds list's DenseSet; ok is false when denseSpan refuses the
// list or its ids do not amount to len(list) distinct bits inside the span
// (not an ascending set).
func newDenseSet(list []graph.V, mem *Slab) (d *DenseSet, ok bool) {
	span, ok := denseSpan(list)
	if !ok {
		return nil, false
	}
	base := int(list[0] >> 6)
	words := mem.uint64s(span)
	for _, v := range list {
		if w := int(v>>6) - base; uint(w) < uint(span) {
			words[w] |= 1 << (v & 63)
		}
	}
	d = mem.denseSet()
	*d = DenseSet{first: list[0], last: list[len(list)-1], words: words, rank: mem.uint32s(span + 1)}
	if d.fill() != len(list) {
		return nil, false
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

// boundTo returns d if its header is that of a set over list — same length,
// first and last id, and arrays of the span those two imply — and nil
// otherwise. After it, word indices in [0, len(d.words)) are in range for
// words and rank[:+1]. Kept out of line so that Index.dense, which answers
// for the many lists without a set, stays small enough to inline.
//
//go:noinline
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

// Slab carves the arrays of the indexes built with it out of chunks, so the
// owner of thousands of indexes allocates per chunk and not per index. A
// carved array is never moved or handed out twice, and lives as long as
// anything refers into its chunk. The zero value is ready; a nil *Slab
// allocates every array on its own. Not for concurrent use.
type Slab struct {
	u32   []uint32
	u64   []uint64
	sets  []DenseSet
	bytes int
}

// slabChunkBytes is the size of a chunk of array elements (DenseSet headers
// come in chunks of slabSets). An array of more than a quarter of a chunk
// gets an allocation of its own, so a chunk's unused tail stays below that.
const (
	slabChunkBytes = 64 << 10
	slabSets       = 64
)

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

func (m *Slab) denseSet() *DenseSet {
	if m == nil {
		return new(DenseSet)
	}
	return &carve(&m.sets, &m.bytes, 1, slabSets)[0]
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
