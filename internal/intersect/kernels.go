package intersect

import (
	"math/bits"

	"repro/internal/graph"
)

// This file holds the fast *host* kernels of the cost-decoupled layer
// (DESIGN.md §5). They compute |a ∩ b| for the engines' wall-clock, while
// the modeled compute charge — the exact Algorithm 1/2 ops counts the
// golden tests pin — comes from cost.go or from a per-size depth table.
// All kernels require strictly increasing inputs (adjacency lists are
// sorted and deduplicated sets).
//
// Algorithm 2-charged pairs have two kernels and Algorithm 1-charged pairs
// two, with the reference loops of intersect.go behind them:
//
//   - the stamp-set probe (scratch.go): a per-rank reusable uint64 bitmap —
//     the pivot list is stamped once and every neighbour list is counted
//     with one bit test per element, amortizing the build over deg(pivot)
//     intersections.
//   - the word-parallel AND (scratch.go andCount): when the neighbour list
//     comes with a DenseSet (index.go) — its own bitmap — the count is the
//     popcount of stamp AND set over the words the set spans, 64 ids a step.
//     It, the probe and the rank query's key loop run eight words, ids or
//     keys per instruction on a CPU with AVX-512 (stamp_amd64.s).
//   - the rank query (rankBinary below): when the Algorithm 1 tree is a
//     DenseSet — the stamped pivot's, which the Scratch builds, or a fetched
//     hub's, which the caller hands in — a key's insertion point is a prefix
//     popcount of the bitmap and its charge one load from a per-size depth
//     table (fillDepth below) — no branch on the data, no tree access.
//   - the depth-table binary search (depthBinary below): for any other
//     tree whose depth table the Scratch has or can cache, a galloping
//     cursor finds the insertion point and the same table gives the charge.
//
// A tree the depth cache turns away (longer than depthMaxLen, or arriving
// after depthMaxBytes of tables) is searched by Binary/BinaryElements
// themselves, which are also the oracle the tests hold every kernel to.

// gallop returns lowerBound(tree, x) given that every element before q is
// below x. Short gaps walk linearly (sequential, predictor-friendly);
// longer ones double the stride and bisect the final bracket.
func gallop(tree []graph.V, q int, x graph.V) int {
	nn := len(tree)
	for steps := 0; q < nn && tree[q] < x; steps++ {
		q++
		if steps == 8 {
			d := 8
			for q+d < nn && tree[q+d] < x {
				q += d
				d <<= 1
			}
			hi := q + d
			if hi > nn {
				hi = nn
			}
			for q < hi {
				m := int(uint(q+hi) >> 1)
				if tree[m] < x {
					q = m + 1
				} else {
					hi = m
				}
			}
			break
		}
	}
	return q
}

// depthBinary returns |keys ∩ tree| and the exact probe-iteration count of
// the reference Binary loop, given depth, the fillDepth table for the tree's
// length n (miss counts in depth[:n+1], hit counts after them). Every
// tree[mid] comparison the reference makes is equivalent to comparing mid
// against the key's insertion point p (with a hit exactly at mid == p), so
// the reference iteration count is a pure function of (n, p, hit): once p is
// known the charge is depth[p + hit·(n+1)], one load. Finding p is the only
// part that touches the tree: keys ascend, so a monotone cursor gallops on
// from the previous key's. For an ascending tree p is the true lower bound;
// for any input it stays in [0, n].
//
// When wantDst is set, matched keys are appended to dst (the
// BinaryElements variant); the returned slice is dst extended, ascending.
func depthBinary(depth []uint8, keys, tree []graph.V, wantDst bool, dst []graph.V) (count, ops int, out []graph.V) {
	assertOriented(keys, tree)
	n := len(tree)
	depth = depth[:2*n+1]
	q := 0 // cursor: lowerBound(tree, previous key), monotone over the call
	for _, x := range keys {
		if q < n && tree[q] < x {
			q = gallop(tree, q+1, x)
		}
		hit := 0
		if q < n {
			// 1 iff equal, without a jump: for operands below 2³², x^y − 1
			// borrows into bit 63 exactly when x^y is 0.
			hit = int(((uint64(tree[q]) ^ uint64(x)) - 1) >> 63)
		}
		count += hit
		ops += int(depth[q+hit*(n+1)])
		if wantDst && hit != 0 {
			dst = append(dst, x)
		}
	}
	return count, ops, dst
}

// rankBinary returns |keys ∩ tree| and the exact probe-iteration count of the
// reference Binary loop for a tree given as set, a DenseSet the caller has
// bound to it (the Scratch's own over its stamp, or a caller's), and depth,
// the fillDepth table for the tree's length n — without touching the tree. A
// key x's insertion point is the number of the set's ids below it,
//
//	p = rank[w] + popcount(words[w] & (1<<(x&63) - 1)),  w = x>>6 - first>>6,
//
// its bitmap bit is the hit, and the reference iteration count is a pure
// function of (n, p, hit) that fillDepth tabulated — two L1 loads, a popcount
// and a table load per key, no data-dependent branch. A key outside the words
// the set spans is a miss with p = 0 below them and p = n above; keys ascend,
// so rankCountGeneric's one branch, on that, flips at most twice per call.
//
// check is set for a set that is not the Scratch's own: each word read must
// then hold rank[w+1] − rank[w] bits (a second popcount; half again the cost
// of a key, which the scratch's own bitmap need not pay). ok is false — and
// the other results void — when one does not, or a position leaves the
// table: the set is damaged, and the caller redoes the pair without it.
func rankBinary(set *DenseSet, depth []uint8, keys []graph.V, check, wantDst bool, dst []graph.V) (count, ops int, out []graph.V, ok bool) {
	base := int(set.first >> 6)
	words, rank := set.words, set.rank[:len(set.words)+1]
	if useAVX512 && cap(depth)-len(depth) >= depthSlack { // room for its dword gathers
		count, ops, ok = rankCountAVX512(words, rank, depth, keys, base, check)
	} else {
		count, ops, ok = rankCountGeneric(words, rank, depth, keys, base, check)
	}
	if !ok {
		return 0, 0, dst, false
	}
	// Listing is a second pass, so that the key loop keeps its few values in
	// registers: an append in it spills them all, every key.
	if wantDst && count > 0 {
		for _, x := range keys {
			if w := int(x>>6) - base; uint(w) < uint(len(words)) && words[w]>>(x&63)&1 != 0 {
				dst = append(dst, x)
			}
		}
	}
	return count, ops, dst, true
}

// rankCountGeneric is rankBinary's key loop: the hits among keys and the sum
// of their depth-table charges against the set (words, rank) whose first word
// is word base of the id space; ok is false, and both sums 0, when a word read
// fails the check or a position leaves depth. rank is len(words)+1 long.
func rankCountGeneric(words []uint64, rank []uint32, depth []uint8, keys []graph.V, base int, check bool) (count, ops int, ok bool) {
	n := (len(depth) - 1) / 2
	rank, next := rank[:len(words)], rank[1:len(words)+1] // no bounds checks below
	bad := 0
	for _, x := range keys {
		w := int(x>>6) - base
		if uint(w) >= uint(len(words)) {
			if w < 0 {
				ops += int(depth[0])
			} else {
				ops += int(depth[n])
			}
			continue
		}
		word, bit := words[w], x&63
		hit := int(word >> bit & 1)
		p := int(rank[w]) + bits.OnesCount64(word&(1<<bit-1))
		if check {
			bad |= p + bits.OnesCount64(word>>bit) - int(next[w])
		}
		at := uint(p + hit*(n+1))
		if at >= uint(len(depth)) {
			return 0, 0, false
		}
		count += hit
		ops += int(depth[at])
	}
	if bad != 0 {
		return 0, 0, false
	}
	return count, ops, true
}

// fillDepth tabulates Algorithm 1's iteration counts for every outcome
// inside the interval [lo, hi) that the reference loop enters after d
// iterations: hit[p] for a key equal to tree[p], miss[p] for an absent key
// with insertion point p. Every tree[mid] comparison is an index comparison
// against p, so the trajectory depends on the tree's length alone. The left
// spine is walked in the loop, right subtrees by recursion (depth ≤ log2 of
// the size).
func fillDepth(miss, hit []uint8, lo, hi int, d uint8) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		d++
		hit[mid] = d
		fillDepth(miss, hit, mid+1, hi, d)
		hi = mid
	}
	miss[lo] = d
}

// upperBound returns the number of elements of s that are ≤ x (s strictly
// increasing).
func upperBound(s []graph.V, x graph.V) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
