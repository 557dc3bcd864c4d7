package intersect

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Scratch is the per-rank reusable state of the cost-decoupled kernel
// layer: a uint64 stamp-set bitmap for the amortized pivot kernel, the
// DenseSet over it for Binary-charged probes into the pivot, and the cache
// of Algorithm 1 depth tables the Binary-charged kernels read their charge
// from. Engines acquire one per simulated rank (GetScratch/PutScratch) and
// route every intersection through Count/Elements; after warm-up the
// kernels allocate nothing.
//
// Count and Elements return exactly the (count, ops) pair of the
// reference Count/Elements in intersect.go: the count is computed by the
// fast host kernels, the ops charge by the cost model (cost.go) or by a
// kernel whose iteration structure provably matches the reference. The
// golden SimTime pins depend on that equivalence; equiv_test.go and
// FuzzIntersectKernels enforce it.
//
// A Scratch is single-goroutine state, like the rank it belongs to.
// Inputs must be strictly increasing (adjacency lists are sorted sets).
// Repeat pivots are recognized by slice identity (address + length), so a
// caller that overwrites a previously passed buffer in place — the
// compressed-locals engines decode into reused buffers — must Unstamp
// before the overwrite, or the memo may serve the old list's stamp.
type Scratch struct {
	// words is the stamp-set bitmap, one bit per vertex id. stamped is a
	// scratch-owned copy of the stamped ids, so the stamp can be cleared
	// in O(|stamped|) even if the caller's list has since been overwritten
	// (decode-buffer reuse does exactly that); stampPtr/stampLen record the
	// caller list's identity so repeat pivots are recognized without a
	// content compare.
	words    []uint64
	stamped  []graph.V
	stampPtr *graph.V
	stampLen int

	// index is the stamp as a DenseSet (rankBinary): its words are the
	// bitmap words the stamped list spans, its rank a buffer of the
	// scratch's. Built on the stamp's first Binary-charged use, dropped
	// (rankOK) whenever the stamp or the bitmap changes.
	index  DenseSet
	rankOK bool
	// The depth tables (depthFor): Algorithm 1's iteration counts for a
	// tree of n elements (fillDepth) depend on n alone, so a table outlives
	// every list it was built for and stays with a pooled scratch.
	// depthOff[n] is 1 + the table's offset in depthBuf, 0 while there is
	// none; spill is the stamped pivot's table when its length is not cached.
	depthOff []uint32
	depthBuf []uint8
	spill    []uint8
	spillN   int
}

// stampMinLen is the smallest pivot worth stamping: below it the
// branch-free merge beats the stamp+probe round trip even with reuse.
const stampMinLen = 32

// rankSpanWords bounds the rank index's O(span) prefix build: the stamped
// list may span at most this many bitmap words per element (one element
// per 256 ids), which keeps the build within a small constant of the
// stamp's own O(len) cost. Sparser lists go to depthBinary.
const rankSpanWords = 4

// depthMaxLen and depthMaxBytes bound a scratch's depth-table cache: tables
// for trees of up to depthMaxLen ids (2n+1 bytes each, and 4 bytes of
// depthOff per length up to the longest cached), depthMaxBytes of tables in
// all. A hub list is fetched thousands of times per run, so the lengths that
// carry the keys arrive early and stay; nothing is evicted.
const (
	depthMaxLen    = 1 << 15
	depthMaxBytes  = 1 << 20
	depthGrowBytes = 1 << 16
)

// depthSlack is how many bytes of its backing array follow every depthFor
// table: rankCountAVX512 reads depth[at] as the dword at depth+at.
const depthSlack = 3

// EnsureUniverse pre-sizes the bitmap for vertex ids in [0, n), so the
// steady state performs no growth allocations. Stamping grows the bitmap
// on demand regardless; this is an optimization, not a requirement.
func (s *Scratch) EnsureUniverse(n int) {
	need := (n + 63) / 64
	if need > len(s.words) {
		s.grow(need)
	}
}

// grow replaces the bitmap with a larger one. Live stamped bits are
// re-derived from the stamped list rather than copied: the old array may
// be mostly empty.
func (s *Scratch) grow(need int) {
	if c := 2 * len(s.words); need < c {
		need = c
	}
	s.words = make([]uint64, need)
	for _, v := range s.stamped {
		s.words[v>>6] |= 1 << (v & 63)
	}
	s.rankOK = false
}

// sameList reports whether x is the identical slice (backing position and
// length) as the recorded (ptr, n) pair. CSR adjacency lists are disjoint
// subslices of one arcs array, so the pair identifies a list uniquely.
func sameList(x []graph.V, ptr *graph.V, n int) bool {
	return n > 0 && len(x) == n && &x[0] == ptr
}

// Stamp publishes list into the bitmap (clearing any previous stamp).
// The grid engine uses it directly as its sparse accumulator; Count
// invokes it through the reuse heuristic. The ids are copied into
// scratch-owned storage: a caller that later overwrites the list (reused
// decode buffers do) can stale the identity memo at worst, never the
// bitmap — Unstamp clears exactly the bits that were set.
func (s *Scratch) Stamp(list []graph.V) {
	s.Unstamp()
	if len(list) == 0 {
		return
	}
	if need := int(list[len(list)-1]>>6) + 1; need > len(s.words) {
		s.grow(need)
	}
	s.stamped = append(s.stamped[:0], list...)
	s.stampPtr, s.stampLen = &list[0], len(list)
	// A damaged list whose last id is not its largest grows the bitmap at its
	// first id past the extent; grow re-derives every stamped bit.
	words := s.words
	for _, v := range s.stamped {
		w := int(v >> 6)
		if w >= len(words) {
			s.grow(w + 1)
			words = s.words
		}
		words[w] |= 1 << (v & 63)
	}
}

// Unstamp clears the current stamp in O(|stamped|), dropping every reference
// into caller data while keeping the allocated capacity.
func (s *Scratch) Unstamp() {
	for _, v := range s.stamped {
		s.words[v>>6] &^= 1 << (v & 63)
	}
	s.stamped = s.stamped[:0]
	s.stampPtr, s.stampLen = nil, 0
	s.rankOK = false
}

// Has reports whether v is in the stamped set.
func (s *Scratch) Has(v graph.V) bool {
	w := int(v >> 6)
	return w < len(s.words) && s.words[w]>>(v&63)&1 != 0
}

// useAVX512 selects the AVX-512 bodies of the three assembly kernels,
// andCount's AND, probeCount's bit tests and rankBinary's key loop
// (stamp_amd64.s), once at init from CPUID; elsewhere their Go loops run.
// Tests clear it to run the Go loops on a host that has the assembly.
var useAVX512 = avx512Missing() == ""

// probeCount counts the elements of b present in the stamped set with one
// bit test each. b is ascending, so everything at or past the bitmap's
// extent is absent and the scan can stop; a damaged b that is not stops at
// its first such id all the same.
func (s *Scratch) probeCount(b []graph.V) int {
	if useAVX512 {
		count, _ := probeCountAVX512(s.words, b)
		return count
	}
	count, _ := probeCountGeneric(s.words, b)
	return count
}

// probeCountGeneric counts the ids of b whose bit is set in words, up to n,
// the index of the first id past the bitmap's extent (len(b) if none is) —
// where the scan stops, whatever order b is in.
func probeCountGeneric(words []uint64, b []graph.V) (count, n int) {
	// 64-bit limit: len(words)*64 can reach 2³² exactly when the stamped
	// ids touch the top of the uint32 space, which would wrap graph.V.
	limit := uint64(len(words)) * 64
	i := 0
	for i < len(b) {
		// 4-way unroll: the OR of four ids is at least the largest, so one
		// limit test covers the quad, and the four bit probes are
		// independent loads the core can overlap. A quad the test refuses
		// advances one id at a time.
		if i+4 <= len(b) {
			q := b[i : i+4 : i+4]
			if v0, v1, v2, v3 := q[0], q[1], q[2], q[3]; uint64(v0|v1|v2|v3) < limit {
				count += int(words[v0>>6]>>(v0&63)&1) +
					int(words[v1>>6]>>(v1&63)&1) +
					int(words[v2>>6]>>(v2&63)&1) +
					int(words[v3>>6]>>(v3&63)&1)
				i += 4
				continue
			}
		}
		v := b[i]
		if uint64(v) >= limit {
			break
		}
		count += int(words[v>>6] >> (v & 63) & 1)
		i++
	}
	return count, i
}

// probeElements appends the elements of b present in the stamped set to
// dst (ascending, like every Elements kernel).
func (s *Scratch) probeElements(b []graph.V, dst []graph.V) []graph.V {
	words := s.words
	limit := uint64(len(words)) * 64 // see probeCount
	for _, v := range b {
		if uint64(v) >= limit {
			break
		}
		if words[v>>6]>>(v&63)&1 != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// andCount counts the stamped ids in set, a DenseSet over the list being
// counted, 64 ids a step: the popcount of stamp AND set over the words the
// set spans (nothing is stamped past the bitmap's extent). ok is false when
// the set's words no longer add up to the sum recorded with them; the count
// is then void.
func (s *Scratch) andCount(set *DenseSet) (count int, ok bool) {
	var stamp []uint64
	if base := int(set.first >> 6); base < len(s.words) {
		stamp = s.words[base:]
	}
	n := min(len(set.words), len(stamp))
	var sum uint64
	if useAVX512 {
		count, sum = andCountAVX512(set.words[:n], stamp[:n])
	} else {
		count, sum = andCountGeneric(set.words[:n], stamp[:n])
	}
	for _, w := range set.words[n:] {
		sum += w
	}
	return count, sum == set.sum
}

// andCountGeneric returns Σ popcount(words[i] & stamp[i]) and Σ words[i]
// over the words; stamp is at least as long.
func andCountGeneric(words, stamp []uint64) (count int, sum uint64) {
	stamp = stamp[:len(words)]
	for i, w := range words {
		count += bits.OnesCount64(w & stamp[i])
		sum += w
	}
	return count, sum
}

// hostSSI computes the Algorithm 2-charged intersection of (a, b) where a
// is the caller's pivot side and bSet nil or a DenseSet bound to b. Host
// dispatch (the Eq. (3) refinement that exists only on the host): a stamped
// pivot is probed with one AND per word of the other list's DenseSet, if it
// comes with one that holds up, or with one bit test per element of it; a
// pivot of useful size is stamped first (the cost is linear like the
// merge's, but every op is independent — no data-dependent branches, no
// loop-carried load chain — and the stamp amortizes across the pivot's whole
// adjacency walk); small pairs take the branch-free merge, whose exit
// positions carry the charge.
func (s *Scratch) hostSSI(a, b []graph.V, bSet *DenseSet) (count, ops int) {
	if !sameList(a, s.stampPtr, s.stampLen) {
		switch {
		case sameList(b, s.stampPtr, s.stampLen):
			count = s.probeCount(a)
			return count, ssiOps(a, b, count, nil)
		case len(a) >= stampMinLen:
			s.Stamp(a)
		default:
			var iEnd, jEnd int
			count, iEnd, jEnd = MergeCount(a, b)
			return count, iEnd + jEnd - count
		}
	}
	ok := false
	if bSet != nil {
		count, ok = s.andCount(bSet)
	}
	if !ok {
		count = s.probeCount(b)
	}
	return count, ssiOps(a, b, count, bSet)
}

// rankTree reports whether the scratch's own DenseSet (index) can serve a
// Binary-charged pair whose longer side is tree, stamping and indexing it if
// need be. a is the caller's pivot argument. The choice reads only the
// input: tree must be the stamped list, or the pivot side and worth stamping,
// and its own id span (first to last element, in bitmap words) must stay
// within rankSpanWords per element so the prefix build amortizes like the
// stamp does. The bitmap's capacity plays no part, so a rank sees the same
// kernels whichever pooled Scratch it drew.
func (s *Scratch) rankTree(a, tree []graph.V) bool {
	n := len(tree)
	stamped := sameList(tree, s.stampPtr, s.stampLen)
	if stamped && s.rankOK {
		return true
	}
	if !stamped && (n < stampMinLen || len(a) != n || &a[0] != &tree[0]) {
		return false
	}
	base := int(tree[0] >> 6)
	span := int(tree[n-1]>>6) - base + 1
	// span < 1: the list is not ascending (a corrupted snapshot can serve
	// one); the searches tolerate that, the index would not.
	if span < 1 || span > rankSpanWords*n {
		return false
	}
	if !stamped {
		s.Stamp(tree)
	}
	// The set's words are the stamp's; its ranks go into a reused buffer.
	if cap(s.index.rank) < span+1 {
		s.index.rank = make([]uint32, max(span+1, 2*cap(s.index.rank)))
	}
	s.index = DenseSet{first: tree[0], last: tree[n-1], words: s.words[base : base+span], rank: s.index.rank[:span+1]}
	s.index.fill()
	s.rankOK = true
	return true
}

// cachedDepth returns the cached fillDepth table of a tree of n elements,
// nil if there is none.
func (s *Scratch) cachedDepth(n int) []uint8 {
	if n >= len(s.depthOff) || s.depthOff[n] == 0 {
		return nil
	}
	off := int(s.depthOff[n] - 1)
	return s.depthBuf[off : off+2*n+1]
}

// depthFor returns the fillDepth table of a tree of n elements: misses in
// [:n+1], hits after them, and at least depthSlack bytes of its backing array
// past them. A table is cached by length, within depthMaxLen and
// depthMaxBytes; past either bound the result is nil. The stamped pivot
// (pivot set) needs a table whatever its length: it takes a cached one if
// there is one, else the spill table, refilled when the pivot's length
// changes — once per pivot, a small part of stamping it — so that pivot
// lengths do not take up the cache.
func (s *Scratch) depthFor(n int, pivot bool) []uint8 {
	if t := s.cachedDepth(n); t != nil {
		return t
	}
	if pivot {
		if s.spillN != n {
			if cap(s.spill) < 2*n+1+depthSlack {
				s.spill = make([]uint8, max(2*n+1+depthSlack, 2*cap(s.spill)))
			}
			s.spill = s.spill[:2*n+1]
			fillDepth(s.spill[:n+1], s.spill[n+1:], 0, n, 0)
			s.spillN = n
		}
		return s.spill
	}
	off := len(s.depthBuf)
	if n > depthMaxLen || off+2*n+1 > depthMaxBytes {
		return nil
	}
	if n >= len(s.depthOff) {
		s.depthOff = append(s.depthOff, make([]uint32, n+1-len(s.depthOff))...)
	}
	if cap(s.depthBuf) < off+2*n+1+depthSlack {
		// Grow by a fixed step, not by doubling: the buffer is long-lived
		// and ends up a few hundred KiB, slack would only be resident.
		s.depthBuf = append(make([]uint8, 0, off+max(2*n+1+depthSlack, depthGrowBytes)), s.depthBuf...)
	}
	s.depthBuf = s.depthBuf[:off+2*n+1]
	s.depthOff[n] = uint32(off + 1)
	t := s.depthBuf[off:]
	fillDepth(t[:n+1], t[n+1:], 0, n, 0)
	return t
}

// binary serves an Algorithm 1-charged pair (keys the shorter list) with the
// first of three kernels the input admits: rankBinary when the tree has a
// DenseSet — it is the stamped or stampable pivot, or treeSet (nil, or a set
// bound to tree) is the caller's; depthBinary — the opposite orientation
// (pivot as keys, fetched list as tree), sparse pivots and short or sparse
// hubs — while the depth cache has or takes the tree's length; the reference
// Binary/BinaryElements loops for what is left.
func (s *Scratch) binary(a, keys, tree []graph.V, treeSet *DenseSet, wantDst bool, dst []graph.V) (count, ops int, out []graph.V) {
	assertOriented(keys, tree)
	n := len(tree)
	own := s.rankTree(a, tree)
	if len(keys) == 0 {
		return 0, 0, dst
	}
	if own {
		treeSet = &s.index
	}
	if depth := s.depthFor(n, own); depth != nil {
		if treeSet != nil {
			if count, ops, out, ok := rankBinary(treeSet, depth, keys, !own, wantDst, dst); ok {
				return count, ops, out
			}
		}
		return depthBinary(depth, keys, tree, wantDst, dst)
	}
	if !wantDst {
		count, ops = Binary(keys, tree)
		return count, ops, dst
	}
	out, ops = BinaryElements(keys, tree, dst)
	return len(out) - len(dst), ops, out
}

// Count returns (|a ∩ b|, modeled ops), bit-identical to the reference
// Count for every method, with the count produced by the fast host
// kernels. The first argument should be the reused side (the engines'
// pivot adj(v_i)) so the stamp-set amortization can engage; correctness
// does not depend on it.
func (s *Scratch) Count(method Method, a, b []graph.V) (count, ops int) {
	return s.CountIndexed(method, a, b, nil)
}

// CountIndexed is Count for a caller that holds a DenseSet over b (nil for
// none), which stands in for b under either charge once boundTo accepts it.
// Result and charge are Count's, whatever the set holds.
func (s *Scratch) CountIndexed(method Method, a, b []graph.V, bSet *DenseSet) (count, ops int) {
	if bSet != nil {
		bSet = bSet.boundTo(b)
	}
	sa, sb := a, b
	treeSet := bSet
	if len(sa) > len(sb) {
		sa, sb = sb, sa
		treeSet = nil // the tree is a
	}
	switch method {
	case MethodSSI:
		return s.hostSSI(a, b, bSet)
	case MethodBinary:
		count, ops, _ = s.binary(a, sa, sb, treeSet, false, nil)
		return count, ops
	default:
		if PreferSSI(len(sa), len(sb)) {
			return s.hostSSI(a, b, bSet)
		}
		count, ops, _ = s.binary(a, sa, sb, treeSet, false, nil)
		return count, ops
	}
}

// Elements appends a ∩ b to dst (ascending) and returns the extended
// slice plus the modeled ops — bit-identical to the reference Elements.
func (s *Scratch) Elements(method Method, a, b []graph.V, dst []graph.V) ([]graph.V, int) {
	sa, sb := a, b
	if len(sa) > len(sb) {
		sa, sb = sb, sa
	}
	ssiCharged := false
	switch method {
	case MethodSSI:
		ssiCharged = true
	case MethodBinary:
	default:
		ssiCharged = PreferSSI(len(sa), len(sb))
	}
	if !ssiCharged {
		_, ops, out := s.binary(a, sa, sb, nil, true, dst)
		return out, ops
	}
	before := len(dst)
	switch {
	case sameList(a, s.stampPtr, s.stampLen):
		dst = s.probeElements(b, dst)
	case sameList(b, s.stampPtr, s.stampLen):
		dst = s.probeElements(a, dst)
	case len(a) >= stampMinLen:
		s.Stamp(a)
		dst = s.probeElements(b, dst)
	default:
		var iEnd, jEnd int
		dst, iEnd, jEnd = mergeElements(sa, sb, dst)
		return dst, iEnd + jEnd - (len(dst) - before)
	}
	return dst, ssiOps(a, b, len(dst)-before, nil)
}

// --- pool ------------------------------------------------------------------

// The scratch pool is an explicit free list (not a sync.Pool): instances
// survive garbage collections, so steady-state engine runs and the
// benchmark trajectory see zero pool-miss allocations.
var scratchPool struct {
	mu   sync.Mutex
	free []*Scratch
}

// GetScratch returns a reset Scratch from the pool (or a fresh one).
func GetScratch() *Scratch {
	scratchPool.mu.Lock()
	n := len(scratchPool.free)
	if n == 0 {
		scratchPool.mu.Unlock()
		return new(Scratch)
	}
	s := scratchPool.free[n-1]
	scratchPool.free[n-1] = nil
	scratchPool.free = scratchPool.free[:n-1]
	scratchPool.mu.Unlock()
	return s
}

// PutScratch resets s (dropping references into caller data) and returns
// it to the pool.
func PutScratch(s *Scratch) {
	if s == nil {
		return
	}
	s.Unstamp()
	scratchPool.mu.Lock()
	scratchPool.free = append(scratchPool.free, s)
	scratchPool.mu.Unlock()
}
