package intersect

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Differential tests of the cost-decoupled layer: the host kernels and the
// analytic cost model must reproduce the reference kernels' (count, ops)
// bit for bit on randomized inputs. These are the "replay" tests the
// model/host contract (DESIGN.md §5) rests on.

// randSet returns a strictly increasing list of n values drawn from
// [0, span).
func randSet(rng *rand.Rand, n, span int) []graph.V {
	if n > span {
		n = span
	}
	seen := make(map[graph.V]bool, n)
	out := make([]graph.V, 0, n)
	for len(out) < n {
		v := graph.V(rng.Intn(span))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortV(out)
	return out
}

func sortV(s []graph.V) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// oracleCount is the map-based ground truth for |a ∩ b|.
func oracleCount(a, b []graph.V) int {
	in := make(map[graph.V]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	c := 0
	for _, v := range b {
		if in[v] {
			c++
		}
	}
	return c
}

// randPair draws a pair with a randomized size/skew/overlap profile.
func randPair(rng *rand.Rand) (a, b []graph.V) {
	na := rng.Intn(200)
	nb := rng.Intn(200)
	if rng.Intn(3) == 0 { // skewed: |A| ≪ |B|
		na = rng.Intn(20)
		nb = 200 + rng.Intn(2000)
	}
	span := 1 + rng.Intn(4000)
	return randSet(rng, na, span), randSet(rng, nb, span)
}

// TestSSIOpsAnalytic replays the reference Algorithm 2 loop against the
// analytic charge on randomized inputs.
func TestSSIOpsAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		a, b := randPair(rng)
		count, ops := SSI(a, b)
		if got := ssiOps(a, b, count, nil); got != ops {
			t.Fatalf("trial %d: ssiOps(|a|=%d,|b|=%d,count=%d) = %d, reference SSI ops = %d",
				trial, len(a), len(b), count, got, ops)
		}
		// The charge is symmetric, like the reference loop's.
		if got := ssiOps(b, a, count, nil); got != ops {
			t.Fatalf("trial %d: ssiOps not symmetric: %d vs %d", trial, got, ops)
		}
	}
}

// TestMergeCountMatchesSSI pins the branch-free merge to the reference
// loop: same count, and exit positions that reproduce the exact charge.
func TestMergeCountMatchesSSI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		a, b := randPair(rng)
		wantCount, wantOps := SSI(a, b)
		count, iEnd, jEnd := MergeCount(a, b)
		if count != wantCount {
			t.Fatalf("trial %d: MergeCount = %d, want %d (oracle %d)", trial, count, wantCount, oracleCount(a, b))
		}
		if got := iEnd + jEnd - count; got != wantOps {
			t.Fatalf("trial %d: merge exit ops = %d, want %d", trial, got, wantOps)
		}
	}
}

// TestDepthBinaryRandomPairs replays the reference Algorithm 1 loop against
// the depth-table search on the randomized pair profile: identical count
// and identical full-depth probe charge, for trees from empty to thousands
// of ids and keys from none to as many.
func TestDepthBinaryRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		a, b := randPair(rng)
		keys, tree := a, b
		if len(keys) > len(tree) {
			keys, tree = tree, keys
		}
		wantCount, wantOps := Binary(keys, tree)
		count, ops, _ := depthBinary(depthTable(len(tree)), keys, tree, false, nil)
		if count != wantCount || ops != wantOps {
			t.Fatalf("trial %d: depthBinary(|keys|=%d,|tree|=%d) = (%d,%d), want (%d,%d)",
				trial, len(keys), len(tree), count, ops, wantCount, wantOps)
		}
	}
}

// depthTable returns the fillDepth table of a tree of n ids, outside any
// scratch's cache and its bounds, with depthFor's slack past it.
func depthTable(n int) []uint8 {
	t := make([]uint8, 2*n+1, 2*n+1+depthSlack)
	fillDepth(t[:n+1], t[n+1:], 0, n, 0)
	return t
}

// TestScratchCountMatchesReference drives Scratch.Count against the
// reference Count for every method, including the repeat-pivot calls that
// engage the stamp-set kernel (call 1 merges, call 2 stamps, call 3
// probes — each must charge identically).
func TestScratchCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := new(Scratch)
	methods := []Method{MethodSSI, MethodBinary, MethodHybrid}
	for trial := 0; trial < 3000; trial++ {
		a, b := randPair(rng)
		m := methods[trial%len(methods)]
		wantCount, wantOps := Count(m, a, b)
		for call := 0; call < 3; call++ {
			count, ops := s.Count(m, a, b)
			if count != wantCount || ops != wantOps {
				t.Fatalf("trial %d call %d method %v (|a|=%d,|b|=%d): scratch = (%d,%d), want (%d,%d)",
					trial, call, m, len(a), len(b), count, ops, wantCount, wantOps)
			}
		}
		if c := oracleCount(a, b); wantCount != c {
			t.Fatalf("trial %d: reference count %d disagrees with oracle %d", trial, wantCount, c)
		}
	}
}

// TestScratchElementsMatchesReference is the listing-variant differential:
// same elements (ascending), same charge, across fresh and stamped calls.
func TestScratchElementsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := new(Scratch)
	methods := []Method{MethodSSI, MethodBinary, MethodHybrid}
	var got []graph.V
	for trial := 0; trial < 3000; trial++ {
		a, b := randPair(rng)
		m := methods[trial%len(methods)]
		want, wantOps := Elements(m, a, b, nil)
		for call := 0; call < 3; call++ {
			var ops int
			got, ops = s.Elements(m, a, b, got[:0])
			if ops != wantOps || !equalV(got, want) {
				t.Fatalf("trial %d call %d method %v: scratch elements/ops = %v/%d, want %v/%d",
					trial, call, m, got, ops, want, wantOps)
			}
		}
	}
}

func equalV(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstReference holds one Scratch call pair — Count and Elements,
// pivot first — to the reference kernels' (count, ops).
func checkAgainstReference(t *testing.T, s *Scratch, m Method, pivot, other []graph.V, what string) {
	t.Helper()
	wantCount, wantOps := Count(m, pivot, other)
	if count, ops := s.Count(m, pivot, other); count != wantCount || ops != wantOps {
		t.Fatalf("%s method %v (|pivot|=%d,|other|=%d): Count = (%d,%d), want (%d,%d)",
			what, m, len(pivot), len(other), count, ops, wantCount, wantOps)
	}
	want, wantElemOps := Elements(m, pivot, other, nil)
	if got, ops := s.Elements(m, pivot, other, nil); ops != wantElemOps || !equalV(got, want) {
		t.Fatalf("%s method %v (|pivot|=%d,|other|=%d): Elements = %v/%d, want %v/%d",
			what, m, len(pivot), len(other), got, ops, want, wantElemOps)
	}
}

// TestScratchRankMatchesReference drives the rank-indexed kernel — the
// tree is the stamped pivot — against the reference Binary: keys below the
// pivot's first id, above its last id and beyond the bitmap's extent, and
// a stale index never served across re-Stamp, Unstamp and grow.
func TestScratchRankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := new(Scratch)
	for trial := 0; trial < 2000; trial++ {
		n := stampMinLen + rng.Intn(400)
		lo := graph.V(rng.Intn(5000))
		pivot := randSet(rng, n, n*(1+rng.Intn(64*rankSpanWords)))
		for i := range pivot {
			pivot[i] += lo
		}
		// Keys straddle the pivot's id range on both sides; the top ones
		// lie past the bitmap (sized by the pivot's last id alone here).
		keys := randSet(rng, 1+rng.Intn(stampMinLen), int(lo)+2*int(pivot[n-1]-lo)+200)
		m := []Method{MethodBinary, MethodHybrid}[trial%2]
		switch trial % 5 {
		case 1:
			s.Unstamp() // the call below stamps the pivot itself
		case 2:
			s.Stamp(keys) // another list's stamp (and index) is live
			s.Count(MethodBinary, keys, keys[:1])
		case 3:
			s = new(Scratch) // grow doubles: a shared bitmap would outgrow memory
			s.Count(MethodBinary, pivot, keys)
			s.EnsureUniverse(64 * (len(s.words) + 1)) // grow under a live index
		}
		for call := 0; call < 2; call++ {
			checkAgainstReference(t, s, m, pivot, keys, "pivot first")
			checkAgainstReference(t, s, m, keys, pivot, "pivot second")
		}
		if m == MethodBinary {
			span := int(pivot[n-1]>>6) - int(pivot[0]>>6) + 1
			if want := span <= rankSpanWords*n; s.rankOK != want {
				t.Fatalf("trial %d: rank index live = %v with span %d words over %d elements", trial, s.rankOK, span, n)
			}
		}
	}
}

// TestScratchRankSpanGuard puts one list on each side of the span guard:
// both charge like the reference, only the dense one is indexed, and the
// choice does not depend on the bitmap's capacity.
func TestScratchRankSpanGuard(t *testing.T) {
	keys := []graph.V{0, 5, 64, 255, 256, 257, 9000, 1 << 20}
	for _, universe := range []int{0, 1 << 22} {
		for _, step := range []int{32 * rankSpanWords, 128 * rankSpanWords} {
			s := new(Scratch)
			s.EnsureUniverse(universe)
			pivot := stride(2*stampMinLen, step)
			for call := 0; call < 3; call++ {
				checkAgainstReference(t, s, MethodBinary, pivot, keys, "guard")
			}
			if want := step < 64*rankSpanWords; s.rankOK != want {
				t.Errorf("universe %d step %d: rank index live = %v, want %v", universe, step, s.rankOK, want)
			}
		}
	}
}

// TestScratchRankToleratesUnsorted feeds the rank path what a flipped
// offset bit produces (the serving plane's scrubber tests run queries over
// exactly that): lists whose first or last element belongs to a neighbour
// list. The result is unspecified; the kernels must not fault.
func TestScratchRankToleratesUnsorted(t *testing.T) {
	s := new(Scratch)
	s.EnsureUniverse(1 << 12)
	pivot := stride(2*stampMinLen, 7)
	keys := []graph.V{100, 130, 131, 300}
	headOff := append([]graph.V{4000}, pivot[1:]...)
	tailOff := append(append([]graph.V{}, pivot[1:]...), 3)
	for _, tree := range [][]graph.V{headOff, tailOff, pivot} {
		for _, ks := range [][]graph.V{{4000, 130, 131}, {100, 130, 2}, keys} {
			s.Count(MethodBinary, tree, ks)
			s.Elements(MethodBinary, tree, ks, nil)
		}
	}
}

// TestScratchStampedAcrossSizes exercises bitmap growth: stamping lists
// with increasing maxima must keep probes exact, and Unstamp must leave
// the bitmap empty for the next pivot.
func TestScratchStampedAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := new(Scratch)
	for trial := 0; trial < 200; trial++ {
		span := 64 << uint(rng.Intn(10))
		a := randSet(rng, stampMinLen+rng.Intn(100), span)
		b := randSet(rng, rng.Intn(300), 2*span)
		wantCount, wantOps := Count(MethodSSI, a, b)
		// Two identical calls trigger the stamp; a third probes it.
		for call := 0; call < 3; call++ {
			count, ops := s.Count(MethodSSI, a, b)
			if count != wantCount || ops != wantOps {
				t.Fatalf("trial %d call %d: (%d,%d), want (%d,%d)", trial, call, count, ops, wantCount, wantOps)
			}
		}
		if trial%2 == 0 {
			s.Unstamp() // alternate: with and without carrying the stamp over
		}
	}
	s.Unstamp()
	for i, w := range s.words {
		if w != 0 {
			t.Fatalf("word %d nonzero after Unstamp: %#x", i, w)
		}
	}
}

// TestScratchTopOfIDSpace stamps ids at the very top of the uint32 space:
// the bitmap then spans exactly 2³² bits, and the probe limit must not
// wrap to zero (it is computed in 64 bits).
func TestScratchTopOfIDSpace(t *testing.T) {
	s := new(Scratch)
	a := make([]graph.V, stampMinLen)
	for i := range a {
		a[i] = graph.V(1<<32 - 2*(stampMinLen-i)) // ..., 0xFFFFFFFC, 0xFFFFFFFE
	}
	b := []graph.V{0, a[0], a[1] + 1, 1<<32 - 2, 1<<32 - 1}
	wantCount, wantOps := Count(MethodSSI, a, b)
	if wantCount != oracleCount(a, b) {
		t.Fatalf("reference disagrees with oracle")
	}
	for call := 0; call < 3; call++ { // merge, stamp, stamped probe
		count, ops := s.Count(MethodSSI, a, b)
		if count != wantCount || ops != wantOps {
			t.Fatalf("call %d: (%d,%d), want (%d,%d)", call, count, ops, wantCount, wantOps)
		}
	}
	// The rank index over the same stamp: bit 63 of the last word is set
	// (0xFFFFFFFF joins the pivot), keys sit on it and around it.
	a = append(a, 1<<32-1)
	for _, m := range []Method{MethodBinary, MethodHybrid} {
		checkAgainstReference(t, s, m, a, b, "top of id space")
		checkAgainstReference(t, s, m, a, []graph.V{1<<32 - 1}, "top of id space")
	}
	if !s.rankOK {
		t.Fatal("rank index not engaged on the top-of-space pivot")
	}
}

// TestScratchGridAccumulator pins the Stamp/Has pair the 2D engine uses as
// its sparse accumulator.
func TestScratchGridAccumulator(t *testing.T) {
	s := new(Scratch)
	s.EnsureUniverse(1 << 12)
	mask := []graph.V{3, 64, 65, 700, 4000}
	s.Stamp(mask)
	in := map[graph.V]bool{}
	for _, v := range mask {
		in[v] = true
	}
	for v := graph.V(0); v < 1<<12; v += 7 {
		if s.Has(v) != in[v] {
			t.Fatalf("Has(%d) = %v, want %v", v, s.Has(v), in[v])
		}
	}
	s.Unstamp()
	for _, v := range mask {
		if s.Has(v) {
			t.Fatalf("Has(%d) still true after Unstamp", v)
		}
	}
}

// TestBinaryOrientationAssert arms the debug checks and verifies the
// mis-oriented call panics while the correct orientation passes.
func TestBinaryOrientationAssert(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)
	keys := []graph.V{1, 2, 3}
	tree := []graph.V{1, 2, 3, 4, 5}
	Binary(keys, tree) // correct orientation: must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("Binary(longer, shorter) did not panic with debug checks armed")
		}
	}()
	Binary(tree, keys)
}

// strideFrom returns n ids from lo in steps of step, without wrapping.
func strideFrom(n int, lo, step graph.V) []graph.V {
	out := make([]graph.V, n)
	for i := range out {
		out[i] = lo + graph.V(i)*step
	}
	return out
}

// checkDepthBinary holds depthBinary, counting and listing, and the Scratch
// dispatch above it to the reference Binary and BinaryElements.
func checkDepthBinary(t *testing.T, s *Scratch, keys, tree []graph.V, what string) {
	t.Helper()
	wantCount, wantOps := Binary(keys, tree)
	wantElems, _ := BinaryElements(keys, tree, nil)
	depth := s.depthFor(len(tree), false)
	if depth == nil {
		t.Fatalf("%s: no depth table for %d ids", what, len(tree))
	}
	if c, o, _ := depthBinary(depth, keys, tree, false, nil); c != wantCount || o != wantOps {
		t.Fatalf("%s (|keys|=%d,|tree|=%d): depthBinary = (%d,%d), want (%d,%d)",
			what, len(keys), len(tree), c, o, wantCount, wantOps)
	}
	if c, o, elems := depthBinary(depth, keys, tree, true, nil); c != wantCount || o != wantOps || !equalV(elems, wantElems) {
		t.Fatalf("%s: listing depthBinary = %v (%d,%d), want %v (%d,%d)",
			what, elems, c, o, wantElems, wantCount, wantOps)
	}
	for _, m := range []Method{MethodBinary, MethodHybrid} {
		checkAgainstReference(t, s, m, keys, tree, what)
	}
}

// TestDepthBinaryMatchesReference drives the depth-table kernel against
// the reference Binary: trees of every length from one id up, keys below,
// inside and above the tree or none at all, hits on its first and last id,
// 0xFFFFFFFF in the tree.
func TestDepthBinaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := new(Scratch)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(633)
		if trial%10 == 0 {
			n = []int{1, 2, 32, 33}[trial/10%4]
		}
		lo := graph.V(rng.Intn(5000))
		tree := randSet(rng, n, n*(1+rng.Intn(300)))
		for i := range tree {
			tree[i] += lo
		}
		if trial%7 == 0 && n > 1 {
			tree[n-1] = 1<<32 - 1
		}
		below := tree[max(n-2, 0)] // an id with room above it
		keys := randSet(rng, 1+rng.Intn(min(n, 32)), int(lo)+2*int(below-lo)+200)
		switch trial % 5 {
		case 1: // hits at both ends of the tree
			keys = append(keys, tree[0], tree[n-1])
			sortV(keys)
			keys = dedupV(keys)
			keys = keys[:min(len(keys), n)]
		case 2: // every key above the tree, or on its last id
			for i := range keys {
				keys[i] = below + 1 + graph.V(i)
			}
		case 3: // every key below the tree, or on its first id
			keys = keys[:1]
			keys[0] = tree[0] - graph.V(rng.Intn(2))*min(tree[0], 3)
		case 4: // no key at all
			keys = keys[:0]
		}
		checkDepthBinary(t, s, keys, tree, "random")
	}
}

func dedupV(s []graph.V) []graph.V {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestDepthCacheBounds walks the depth-table cache to both of its bounds:
// a tree of depthMaxLen ids is tabulated, one id more goes to the reference
// loops, and once depthMaxBytes of tables are in place a new length does
// too — all three charging like the reference, the refused two without
// allocating.
func TestDepthCacheBounds(t *testing.T) {
	s := new(Scratch)
	keys := []graph.V{0, 3, 4, 5, 50000, 98301, 98304, 1 << 20}
	dst := make([]graph.V, 0, len(keys))
	check := func(n int, cached bool) {
		t.Helper()
		tree := strideFrom(n, 3, 3)
		checkAgainstReference(t, s, MethodBinary, keys, tree, "cache bounds")
		if got := s.cachedDepth(n) != nil; got != cached {
			t.Fatalf("%d ids: depth table cached = %v, want %v", n, got, cached)
		}
		if !cached {
			assertZeroAllocs(t, "reference fallback", func() {
				s.Count(MethodBinary, keys, tree)
				dst, _ = s.Elements(MethodBinary, keys, tree, dst[:0])
			})
		}
	}
	check(33, true)
	check(depthMaxLen, true)
	check(depthMaxLen+1, false)
	for n := depthMaxLen - 1; len(s.depthBuf)+2*n+1 <= depthMaxBytes; n-- {
		check(n, true)
	}
	if len(s.depthBuf) > depthMaxBytes || cap(s.depthBuf) > depthMaxBytes+depthGrowBytes {
		t.Fatalf("depth cache holds %d bytes (cap %d), bound %d", len(s.depthBuf), cap(s.depthBuf), depthMaxBytes)
	}
	check(depthMaxLen/2, false) // in length range, out of bytes
	check(33, true)

	// The rank path needs no cache entry: a pivot of an uncached length.
	pivot := strideFrom(depthMaxLen/2, 3, 3)
	for call := 0; call < 2; call++ {
		checkAgainstReference(t, s, MethodBinary, pivot, keys, "pivot past the byte bound")
	}
	if !s.rankOK || s.cachedDepth(len(pivot)) != nil {
		t.Fatalf("rank index live = %v, pivot length cached = %v; want the spill table", s.rankOK, s.cachedDepth(len(pivot)) != nil)
	}
}

// TestSearchesTolerateUnsorted feeds the depth-table search and the
// reference fallback what a flipped offset bit produces: a tree whose first
// or last id belongs to a neighbour. The result is unspecified; every index
// must stay in range.
func TestSearchesTolerateUnsorted(t *testing.T) {
	s := new(Scratch)
	for _, n := range []int{96, depthMaxLen + 1} { // depthBinary, the reference loops
		good := strideFrom(n, 10, 7)
		headOff := append([]graph.V{1 << 30}, good[1:]...)
		tailOff := append(append([]graph.V{}, good[1:]...), 3)
		for _, tree := range [][]graph.V{headOff, tailOff} {
			for _, keys := range [][]graph.V{{0, 9, 10, 11, 300, 4000, 1 << 30, 1<<30 + 1}, {700}, good[:20]} {
				s.Count(MethodBinary, keys, tree)
				s.Elements(MethodBinary, keys, tree, nil)
			}
		}
		if cached := s.cachedDepth(n) != nil; cached != (n <= depthMaxLen) {
			t.Fatalf("%d ids: depth table cached = %v", n, cached)
		}
	}
}

// TestStampToleratesUnsorted stamps a pivot whose largest id is not its last,
// which a damaged list can be: the bitmap, sized from the last id, must grow
// at the first id past it, every method must return, and Unstamp must leave
// no bit behind.
func TestStampToleratesUnsorted(t *testing.T) {
	a := strideFrom(40, 0, 1)
	a[20] = 100000
	keys := []graph.V{1, 2, 3, 100000}
	for _, m := range []Method{MethodSSI, MethodBinary, MethodHybrid} {
		s := new(Scratch)
		for call := 0; call < 3; call++ { // fresh, stamped, rank-indexed
			s.Count(m, a, keys[:3])
			s.Count(m, a, keys)
			s.Elements(m, a, keys, nil)
		}
		if !s.Has(100000) || !s.Has(39) {
			t.Fatalf("method %v: the stamp lacks an id of the pivot", m)
		}
		s.Unstamp()
		for i, w := range s.words {
			if w != 0 {
				t.Fatalf("method %v: word %d nonzero after Unstamp: %#x", m, i, w)
			}
		}
	}
}
