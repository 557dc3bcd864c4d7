package intersect

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzIntersectKernels is the native-fuzzing arm of the model/host
// contract: for arbitrary sorted-set pairs and every method, each host
// kernel's count must match the map oracle, and the analytic/replayed
// charge must match the reference loops' ops — across repeated calls on
// one Scratch so the stamped, rank-indexed and depth-table paths are all
// exercised, with the second list's own DenseSet, a stale one, and one with
// a bit flipped. On a host with the AVX-512 bodies of the stamp kernels and
// the rank query all of it runs once with them and once with the Go loops,
// and each body is held to the other on the pair directly.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint8(2))
	f.Add([]byte{0, 0, 9, 9, 200}, []byte{9}, uint8(1))
	f.Add([]byte{}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{255, 254, 253, 1, 1, 2}, []byte{253, 255, 7, 7}, uint8(3))
	// The rank-indexed path: a dense list long enough to index as the
	// tree, with keys below, inside and above it and past the bitmap, on
	// either argument side; and a list of the same length past the span
	// guard. (16-bit deltas cannot reach the top of the id space densely;
	// TestScratchTopOfIDSpace covers it.)
	dense := bytes.Repeat([]byte{0, 40}, 3*stampMinLen) // id step 41
	f.Add(dense, []byte{0, 3, 0, 200, 2, 0, 9, 9, 255, 255}, uint8(1))
	f.Add([]byte{0, 100, 0, 39, 0, 40, 1, 0}, dense, uint8(2))
	f.Add(bytes.Repeat([]byte{1, 10}, 3*stampMinLen), []byte{0, 5, 1, 10, 200, 0}, uint8(1)) // id step 267
	// The depth-table path: a sparse tree (past the span guard, so never
	// rank-indexed) as the second argument, keys on its first and last id,
	// between and beyond; and a tree with one far outlier.
	sparse := bytes.Repeat([]byte{2, 0}, 3*stampMinLen) // id step 513
	f.Add([]byte{2, 0, 0, 9, 2, 0, 100, 0, 255, 255}, sparse, uint8(1))
	f.Add([]byte{0, 1, 0, 1, 0, 50, 255, 255}, append(bytes.Repeat([]byte{0, 1}, 2*stampMinLen), 255, 255), uint8(2))
	// The DenseSet paths: a list long and dense enough for one as the second
	// argument (300 ids, step 41), under a pivot long enough for Algorithm 2
	// (the word-parallel AND, ssiOps by rank query) and under a few keys
	// (the rank query per key), below, inside and above its span.
	set := bytes.Repeat([]byte{0, 40}, DenseMinLen+44)
	f.Add(bytes.Repeat([]byte{0, 100}, 80), set, uint8(2))
	f.Add(bytes.Repeat([]byte{0, 100}, 80), set, uint8(0))
	f.Add([]byte{0, 3, 0, 36, 0, 40, 1, 0, 40, 0, 200, 0}, set, uint8(1))
	f.Add(append([]byte{20, 0}, bytes.Repeat([]byte{0, 6}, 40)...), set, uint8(2))
	// Short pivots, stamped like any other: 20 ids under Algorithm 2 inside
	// that set's span (the AND), and 31 ids under Eq. (3) against a partner
	// that runs past their bitmap's extent (the probe's stop).
	f.Add(bytes.Repeat([]byte{0, 50}, 20), set, uint8(0))
	f.Add(bytes.Repeat([]byte{0, 3}, 31), append(bytes.Repeat([]byte{0, 2}, 24), 1, 0, 0, 1), uint8(2))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, methodByte uint8) {
		a := setFromBytes(rawA)
		b := setFromBytes(rawB)
		m := Method(methodByte % 3)

		// Where the host has both bodies of the assembly kernels: each one on
		// this input, and everything below once under each.
		paths := []bool{false}
		if hostAVX512 {
			paths = []bool{true, false}
			checkStampBodies(t, a, b)
		}
		defer func(on bool) { useAVX512 = on }(useAVX512)
		for _, simd := range paths {
			useAVX512 = simd
			s := GetScratch()
			// Both argument orders on one scratch, so either list gets to be
			// the pivot side — and the second order meets the first's stamp.
			for _, pair := range [][2][]graph.V{{a, b}, {b, a}} {
				a, b := pair[0], pair[1]
				oracle := oracleCount(a, b)
				wantCount, wantOps := Count(m, a, b)
				if wantCount != oracle {
					t.Fatalf("reference Count(%v) = %d, oracle %d", m, wantCount, oracle)
				}
				wantElems, wantElemOps := Elements(m, a, b, nil)

				// The depth-table kernel itself, whatever the dispatch would pick.
				if len(a) <= len(b) {
					bc, bo := Binary(a, b)
					if c, o, _ := depthBinary(depthTable(len(b)), a, b, false, nil); c != bc || o != bo {
						t.Fatalf("depthBinary = (%d,%d), reference Binary (%d,%d)", c, o, bc, bo)
					}
				}
				// A set over b, and ones that only look like it: the set b had one
				// id ago, and b's own with a bit flipped in a word or in a rank
				// entry. All may only be hints.
				var hints []*DenseSet
				if set, ok := denseSet(b); ok {
					k := (len(rawA) + int(methodByte)) % len(set.words)
					word, rank := copySet(set), copySet(set)
					word.CorruptForTest(DenseWords, k)
					rank.CorruptForTest(DenseRank, k)
					hints = append(hints, set, word, rank)
					if stale, ok := denseSet(b[:len(b)-1]); ok {
						hints = append(hints, stale)
					}
					if len(a) <= len(b) {
						bc, bo := Binary(a, b)
						if c, o, _, ok := rankBinary(set, depthTable(len(b)), a, true, false, nil); !ok || c != bc || o != bo {
							t.Fatalf("rankBinary = (%d,%d,%v), reference Binary (%d,%d)", c, o, ok, bc, bo)
						}
					}
				}

				var elems []graph.V
				// Three rounds walk the dispatch through its states: fresh
				// (stamp or depth table), stamped probe or rank index.
				for call := 0; call < 3; call++ {
					count, ops := s.Count(m, a, b)
					if count != wantCount || ops != wantOps {
						t.Fatalf("call %d method %v: Scratch.Count = (%d,%d), want (%d,%d)",
							call, m, count, ops, wantCount, wantOps)
					}
					for _, set := range hints {
						if count, ops := s.CountIndexed(m, a, b, set); count != wantCount || ops != wantOps {
							t.Fatalf("call %d method %v: Scratch.CountIndexed = (%d,%d), want (%d,%d)",
								call, m, count, ops, wantCount, wantOps)
						}
					}
					var elemOps int
					elems, elemOps = s.Elements(m, a, b, elems[:0])
					if elemOps != wantElemOps || !equalV(elems, wantElems) {
						t.Fatalf("call %d method %v: Scratch.Elements = %v/%d, want %v/%d",
							call, m, elems, elemOps, wantElems, wantElemOps)
					}
				}
			}
			PutScratch(s)
		}
	})
}

// checkStampBodies holds the AVX-512 kernels to the Go loops on a fuzzed pair:
// b probed into a's stamp as given and reversed (so that ids past the stamp's
// extent come first), b's own set ANDed with the stamp, and b as keys of rank
// queries into a's own set and a as keys into b's, checked and not.
func checkStampBodies(t *testing.T, a, b []graph.V) {
	t.Helper()
	k := new(Scratch)
	k.Stamp(a)
	checkProbe(t, k.words, b, "b into a's stamp")
	back := slices.Clone(b)
	slices.Reverse(back)
	checkProbe(t, k.words, back, "b reversed into a's stamp")
	if set, ok := NewDenseSet(b, nil); ok {
		stamp := k.words[min(int(set.first>>6), len(k.words)):]
		n := min(len(set.words), len(stamp))
		checkAnd(t, set.words[:n], stamp[:n], "b's set and a's stamp")
		for _, check := range []bool{false, true} {
			checkRank(t, set.words, set.rank, depthTable(len(b)), a, int(set.first>>6), check, "a into b's set")
		}
	}
	if len(a) > 0 && k.rankTree(a, a) {
		for _, check := range []bool{false, true} {
			checkRank(t, k.index.words, k.index.rank, k.depthFor(len(a), true), b, int(k.index.first>>6), check, "b into a's own set")
		}
	}
}

// setFromBytes builds a strictly increasing vertex list from fuzz bytes:
// consecutive byte pairs become 16-bit deltas, accumulated so the result
// is sorted and duplicate-free by construction while still reaching
// arbitrary shapes (dense runs, huge gaps, empty lists). Accumulation
// stops before the uint32 id space could wrap, which would break the
// strictly-increasing precondition.
func setFromBytes(raw []byte) []graph.V {
	out := make([]graph.V, 0, len(raw)/2)
	cur := uint64(0)
	for i := 0; i+1 < len(raw); i += 2 {
		delta := uint64(raw[i])<<8 | uint64(raw[i+1])
		cur += delta + 1
		if cur > 1<<32 {
			break
		}
		out = append(out, graph.V(cur-1))
	}
	return out
}
