package intersect

import (
	"testing"

	"repro/internal/graph"
)

// Allocation guards for the scratch-based kernels, in the style of
// clampi/zeroalloc_test.go: after warm-up (bitmap sized, stack in place)
// the steady-state paths — branch-free merge, stamp + probe, the depth-table
// search once its table is cached, the reference loops behind it, the rank
// index over the stamp, both uses of a caller's DenseSet, the assembly bodies
// and the Elements variants into a pre-grown destination — must not touch the
// heap at all.

func stride(n, step int) []graph.V {
	out := make([]graph.V, n)
	for i := range out {
		out[i] = graph.V(i * step)
	}
	return out
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.1f allocs per call, want 0", name, avg)
	}
}

func TestScratchZeroAlloc(t *testing.T) {
	s := new(Scratch)
	s.EnsureUniverse(1 << 15)

	small := stride(16, 3)   // below stampMinLen: merge path
	pivot := stride(1024, 3) // stamped pivot
	other := stride(1024, 5) // SSI-charged partner
	keys := stride(64, 37)   // Binary-charged pair
	tree := stride(4096, 3)  //
	dst := make([]graph.V, 0, 2048)

	s.Count(MethodSSI, pivot, other) // warm: stamps the pivot
	assertZeroAllocs(t, "merge", func() { s.Count(MethodSSI, small, other) })
	assertZeroAllocs(t, "stamped probe", func() { s.Count(MethodSSI, pivot, other) })
	alt := stride(512, 7)
	assertZeroAllocs(t, "restamp", func() {
		s.Count(MethodSSI, pivot, other) // stamps pivot (unstamping alt)
		s.Count(MethodSSI, alt, small)   // stamps alt (unstamping pivot)
	})
	s.Count(MethodBinary, keys, tree) // warm: tabulates the depths of a 4096-id tree
	if s.cachedDepth(len(tree)) == nil {
		t.Fatal("depth table not cached after a Binary-charged call")
	}
	assertZeroAllocs(t, "depth binary", func() { s.Count(MethodBinary, keys, tree) })
	assertZeroAllocs(t, "hybrid dispatch", func() { s.Count(MethodHybrid, keys, tree) })
	otherSet, ok := denseSet(other) // 1024 ids in 80 words
	if !ok {
		t.Fatal("no dense set over the SSI-charged partner")
	}
	s.CountIndexed(MethodBinary, keys, other, otherSet) // warm: the depths of a 1024-id tree
	assertZeroAllocs(t, "dense set rank query", func() { s.CountIndexed(MethodBinary, keys, other, otherSet) })
	assertZeroAllocs(t, "dense set AND", func() {
		s.CountIndexed(MethodSSI, pivot, other, otherSet) // stamps pivot
		s.CountIndexed(MethodHybrid, pivot, other, otherSet)
	})
	if hostAVX512 { // the assembly kernels, which the rows above reach through the dispatch
		assertZeroAllocs(t, "AVX-512 AND", func() { andCountAVX512(otherSet.words, s.words[:len(otherSet.words)]) })
		assertZeroAllocs(t, "AVX-512 probe", func() { probeCountAVX512(s.words, other) })
		depth := s.depthFor(len(other), false)
		assertZeroAllocs(t, "AVX-512 rank", func() {
			rankCountAVX512(otherSet.words, otherSet.rank, depth, keys, int(otherSet.first>>6), true)
		})
	}
	long := stride(depthMaxLen+1, 3) // past the depth cache's length bound
	assertZeroAllocs(t, "reference binary", func() { s.Count(MethodBinary, keys, long) })
	s.Count(MethodBinary, tree, keys) // warm: tree is the pivot side, so it is stamped and indexed
	if !s.rankOK {
		t.Fatal("rank index not engaged with the tree as pivot")
	}
	assertZeroAllocs(t, "rank binary", func() { s.Count(MethodHybrid, tree, keys) })
	assertZeroAllocs(t, "rank rebuild", func() {
		s.Count(MethodBinary, pivot, keys) // stamps and indexes pivot (dropping tree's index)
		s.Count(MethodBinary, tree, keys)  // and back: rank and depth buffers are reused
	})
	assertZeroAllocs(t, "elements rank", func() { dst, _ = s.Elements(MethodBinary, tree, keys, dst[:0]) })
	assertZeroAllocs(t, "elements merge", func() { dst, _ = s.Elements(MethodSSI, small, other, dst[:0]) })
	assertZeroAllocs(t, "elements stamped", func() { dst, _ = s.Elements(MethodSSI, pivot, other, dst[:0]) })
	assertZeroAllocs(t, "elements depth", func() { dst, _ = s.Elements(MethodBinary, keys, tree, dst[:0]) })
	assertZeroAllocs(t, "elements reference", func() { dst, _ = s.Elements(MethodBinary, keys, long, dst[:0]) })
	assertZeroAllocs(t, "grid accumulator", func() {
		s.Stamp(pivot)
		n := 0
		for _, v := range other {
			if s.Has(v) {
				n++
			}
		}
		s.Unstamp()
		_ = n
	})
}

// TestScratchPoolRecycles pins the pool contract the engines rely on: a
// released scratch comes back with its capacity (no regrowth allocations,
// rank buffer and depth tables included) and without stale stamp state.
func TestScratchPoolRecycles(t *testing.T) {
	s := GetScratch()
	s.EnsureUniverse(1 << 12)
	pivot := stride(256, 3)
	keys := stride(8, 11)
	s.Count(MethodSSI, pivot, stride(256, 5)) // leaves pivot stamped
	s.Count(MethodBinary, pivot, keys)        // and indexed
	tree := stride(300, 300)                  // too sparse to stamp: the depth-table path
	s.Count(MethodBinary, keys, tree)
	PutScratch(s)

	s2 := GetScratch()
	defer PutScratch(s2)
	if len(s2.stamped) != 0 || s2.rankOK {
		t.Fatal("pooled scratch still stamped or indexed after PutScratch")
	}
	if s2.cachedDepth(len(tree)) == nil {
		t.Fatal("pooled scratch lost its depth tables")
	}
	assertZeroAllocs(t, "depth path on a recycled scratch", func() { s2.Count(MethodBinary, keys, tree) })
	assertZeroAllocs(t, "rank path on a recycled scratch", func() {
		s2.Count(MethodBinary, pivot, keys)
		s2.Unstamp()
	})
	for i, w := range s2.words {
		if w != 0 {
			t.Fatalf("pooled scratch bitmap word %d nonzero: %#x", i, w)
		}
	}
	assertZeroAllocs(t, "pool round trip", func() {
		x := GetScratch()
		PutScratch(x)
	})
}
