package intersect

import (
	"math/bits"

	"repro/internal/graph"
)

// This file holds the fast *host* kernels of the cost-decoupled layer
// (DESIGN.md §5). They compute |a ∩ b| for the engines' wall-clock, while
// the modeled compute charge — the exact Algorithm 1/2 ops counts the
// golden tests pin — comes from cost.go or, for the merge, from the
// kernel's own exit positions. All kernels require strictly increasing
// inputs (adjacency lists are sorted and deduplicated sets).
//
// Six kernels cover the host dispatch:
//
//   - MergeCount: a 4-way unrolled branch-free merge. The scalar SSI loop
//     takes one unpredictable branch per element; on power-law adjacency
//     data roughly half of them mispredict. The unrolled form turns the
//     three outcomes (advance i, advance j, match) into flag arithmetic
//     with no data-dependent branches at all.
//   - the stamp-set probe (scratch.go): a per-rank reusable uint64 bitmap
//     in the spirit of H-INDEX's hashed bins (Pandey et al., HPEC'19) but
//     exact — the pivot list is stamped once and every neighbour list is
//     counted with one bit test per element, amortizing the build over
//     deg(pivot) intersections exactly like the reusable HashIndex.
//   - the word-parallel AND (scratch.go andCount): when the neighbour list
//     comes with a DenseSet (index.go) — its own bitmap — the count is the
//     popcount of stamp AND set over the words the set spans, 64 ids a step.
//   - the rank query (rankBinary below): when the Algorithm 1 tree is a
//     DenseSet — the stamped pivot's, which the Scratch builds, or a fetched
//     hub's, which the caller hands in — a key's insertion point is a prefix
//     popcount of the bitmap and its charge one load from a per-size depth
//     table (fillDepth below) — no branch on the data, no tree access.
//   - the depth-table binary search (depthBinary below): for any other
//     tree up to depthMaxLen, a galloping cursor — or the snapshot's bucket
//     Directory over a fetched hub list — finds the insertion point and
//     the same per-size depth table, cached per Scratch, gives the charge.
//   - the finger-stack binary search (fingerBinary below): Algorithm 1's
//     bisection replayed on indices with the path cached across the
//     (ascending) keys. It serves trees of at most fingerTailLen ids with
//     one table load per key, trees the depth cache cannot hold, and the
//     tests as the oracle of the kernels above.

// The merge kernels turn comparison flags into 0/1 with pure integer
// arithmetic on 64-bit zero-extended operands, so the compiler emits flag
// materialization instead of jumps. For x, y ∈ [0, 2³²):
//
//	eq(x,y) = ((x^y) - 1) >> 63        (1 iff x == y)
//	le(x,y) = ((y - x) >> 63) ^ 1      (1 iff x <= y)
//
// both relying on the subtraction borrowing into bit 63 exactly when the
// 32-bit operands would underflow.

// mergeStep executes one iteration of Algorithm 2 branch-free. It must
// advance i, j and count exactly like the reference SSI loop so the exit
// positions remain a valid basis for the modeled charge (ops = i+j-count).
func mergeStep(a, b []graph.V, i, j, count int) (int, int, int) {
	x, y := uint64(a[i]), uint64(b[j])
	count += int(((x ^ y) - 1) >> 63)
	i += int(((y - x) >> 63) ^ 1)
	j += int(((x - y) >> 63) ^ 1)
	return i, j, count
}

// MergeCount returns |a ∩ b| by branch-free merge along with the exact
// exit positions of the equivalent Algorithm 2 traversal. Because the
// advancement rule is identical to SSI's, iEnd + jEnd - count equals the
// reference loop's ops count bit for bit — the merge kernel carries its
// own modeled charge. Inputs must be strictly increasing.
func MergeCount(a, b []graph.V) (count, iEnd, jEnd int) {
	i, j := 0, 0
	na, nb := len(a), len(b)
	// 4-way unrolled core: four merge steps advance i and j by at most
	// four each, so one pair of bounds tests covers all four iterations.
	for i+4 <= na && j+4 <= nb {
		i, j, count = mergeStep(a, b, i, j, count)
		i, j, count = mergeStep(a, b, i, j, count)
		i, j, count = mergeStep(a, b, i, j, count)
		i, j, count = mergeStep(a, b, i, j, count)
	}
	for i < na && j < nb {
		i, j, count = mergeStep(a, b, i, j, count)
	}
	return count, i, j
}

// mergeElements is MergeCount's listing variant: it appends a ∩ b to dst
// (ascending) and returns the extended slice plus the exit positions. The
// match append is a rare, well-predicted branch; the advancement stays
// branch-free.
func mergeElements(a, b []graph.V, dst []graph.V) ([]graph.V, int, int) {
	i, j := 0, 0
	na, nb := len(a), len(b)
	for i < na && j < nb {
		x, y := uint64(a[i]), uint64(b[j])
		if x == y {
			dst = append(dst, a[i])
		}
		i += int(((y - x) >> 63) ^ 1)
		j += int(((x - y) >> 63) ^ 1)
	}
	return dst, i, j
}

// fingerFrame is one interval [lo, hi) of Algorithm 1's bisection; the
// frame's index on the stack is its depth, i.e. the number of probe
// iterations the reference loop executes to reach it from (0, len(tree)).
type fingerFrame struct {
	lo, hi int32
}

// fingerStackCap bounds the bisection depth: ceil(log2(n))+1 frames for
// n < 2³¹, plus the root.
const fingerStackCap = 40

// fingerTailLen is the interval size at or below which the replay stops
// framing and finishes with one table lookup (see fingerBinary). 32 keeps
// the two tables at ~2 KiB total — a few L1 lines next to the hot loop
// (64 was measurably worse: the 4× larger tables push the dense-key
// replay's working set out of the first-level cache) — while still
// letting every tree up to 32 elements take the frameless fast path.
const fingerTailLen = 32

// The tail lookup tables close the bisection arithmetically. Because
// mid = lo + floor((hi-lo)/2), the whole trajectory of Algorithm 1 inside
// an interval depends only on the interval's size s and the insertion
// point's offset r = p - lo, never on the absolute position — so the
// iteration count is a pure function of (s, r), tabulated once at init:
//
//	tailMissLUT[s][r]: iterations for the interval to converge to (p, p)
//	tailHitLUT[s][r]:  iterations until mid == p, including the match
//
// Each table is (fingerTailLen+1)² bytes — a few L1 lines.
var tailMissLUT, tailHitLUT [(fingerTailLen + 1) * (fingerTailLen + 1)]uint8

func init() {
	for s := 0; s <= fingerTailLen; s++ {
		for r := 0; r <= s; r++ {
			lo, hi, it := 0, s, 0
			for lo < hi {
				it++
				if mid := (lo + hi) / 2; mid < r {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			tailMissLUT[s*(fingerTailLen+1)+r] = uint8(it)
			if r < s {
				lo, hi, it = 0, s, 0
				for {
					it++
					mid := (lo + hi) / 2
					if mid == r {
						break
					}
					if mid < r {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				tailHitLUT[s*(fingerTailLen+1)+r] = uint8(it)
			}
		}
	}
}

// fingerBinary returns |keys ∩ tree| and the exact probe-iteration count
// of the reference Binary loop (Algorithm 1), in one pass over the
// ascending keys that splits the work into a memory half and an
// arithmetic half:
//
//   - a monotone galloping cursor locates each key's insertion point p
//     (linear steps for dense gaps, doubling probes plus a bracketed
//     bisection for sparse ones) — the only part that touches the tree;
//   - the reference bisection is then *replayed on indices alone*: every
//     tree[mid] comparison the reference makes is equivalent to comparing
//     mid against p (with a hit exactly at mid == p), so the per-key
//     full-depth charge is reproduced bit for bit without loading a
//     single tree element.
//
// The replay shares the path across keys with a finger stack: the frames
// of the previous key's path that still contain p resume the charge at
// their stored depth (a frame at stack index d costs the reference d
// iterations to reach), and only the divergent suffix is walked —
// amortized O(log(|tree|/|keys|)) per key. Below fingerTailLen the suffix
// is finished without frame traffic: consecutive keys usually land in the
// same small frame, and re-walking a few index-only steps is cheaper than
// pushing and popping the stack's bottom levels. Trees at or below
// fingerTailLen skip the machinery entirely: their whole charge is one
// table load at the cursor position.
//
// When wantDst is set, matched keys are appended to dst (the
// BinaryElements variant); the returned slice is dst extended, ascending.
func fingerBinary(stack []fingerFrame, keys, tree []graph.V, wantDst bool, dst []graph.V) (count, ops int, out []graph.V) {
	assertOriented(keys, tree)
	n := int32(len(tree))
	if n == 0 || len(keys) == 0 {
		return 0, 0, dst
	}
	if int(n) <= fingerTailLen {
		// Frameless fast path: the whole tree is one LUT frame, so the
		// reference charge for every key is a single table load at the
		// cursor's insertion point — no stack, no replay. Such trees are
		// many but carry few keys: 0.4 % of the Binary-charged keys of the
		// pull-rmat benchmark workload.
		base := int(n) * (fingerTailLen + 1)
		q := 0
		for _, x := range keys {
			for q < int(n) && tree[q] < x {
				q++
			}
			if q < int(n) && tree[q] == x {
				count++
				if wantDst {
					dst = append(dst, x)
				}
				ops += int(tailHitLUT[base+q])
			} else {
				ops += int(tailMissLUT[base+q])
			}
		}
		return count, ops, dst
	}
	st := stack[:fingerStackCap]
	st[0] = fingerFrame{0, n}
	sp := 1
	q := 0 // cursor: lowerBound(tree, previous key), monotone over the call
	nn := len(tree)
	for _, x := range keys {
		// Memory half: advance the cursor to p = lowerBound(tree, x).
		if q < nn && tree[q] < x {
			q = gallop(tree, q+1, x)
		}
		p := int32(q)
		hit := q < nn && tree[q] == x
		if hit {
			count++
			if wantDst {
				dst = append(dst, x)
			}
		}
		// Arithmetic half: replay the reference bisection on indices.
		// Pop frames that are not on x's path (each frame is popped at
		// most once, so pops are amortized O(1) per key): tree[hi] < x
		// ⟺ hi < p means the interval cannot contain p, and tree[hi] ==
		// x ⟺ hi == p on a hit means the reference terminates at the
		// ancestor that probes hi and never enters this frame. Both
		// collapse into one integer threshold.
		popT := p
		if hit {
			popT++
		}
		for sp > 1 && st[sp-1].hi < popT {
			sp--
		}
		// Resume from the deepest shared frame. Iteration accounting is
		// free on the framed part: the frame's stack index is its depth
		// and every non-match iteration pushes exactly one frame, so the
		// framed charge is sp-1 after the descent (plus the match
		// iteration itself on a hit).
		f := st[sp-1]
		lo, hi := f.lo, f.hi
		if hit {
			matched := false
			for hi-lo > fingerTailLen {
				mid := int32(uint32(lo+hi) >> 1)
				if mid == p {
					matched = true
					break
				}
				if mid < p {
					lo = mid + 1
				} else {
					hi = mid
				}
				st[sp] = fingerFrame{lo, hi}
				sp++
			}
			if matched {
				ops += sp // sp-1 framed iterations + the match
			} else {
				ops += sp - 1 + int(tailHitLUT[(hi-lo)*(fingerTailLen+1)+(p-lo)])
			}
			continue
		}
		for hi-lo > fingerTailLen {
			mid := int32(uint32(lo+hi) >> 1)
			if mid < p {
				lo = mid + 1
			} else {
				hi = mid
			}
			st[sp] = fingerFrame{lo, hi}
			sp++
		}
		ops += sp - 1 + int(tailMissLUT[(hi-lo)*(fingerTailLen+1)+(p-lo)])
	}
	return count, ops, dst
}

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

// dirWindow is how many ids past a bucket's start depthBinary compares
// against a key without branching. Buckets hold about four ids, so a key's
// insertion point almost always lies inside the window.
const dirWindow = 8

// depthBinary returns |keys ∩ tree| and the exact probe-iteration count of
// the reference Binary loop for a tree of fingerTailLen < n ≤ depthMaxLen
// ids, given depth, the fillDepth table for n (miss counts in depth[:n+1],
// hit counts after them). Like fingerBinary it splits memory from
// arithmetic, but the arithmetic half is gone: the reference iteration
// count is a pure function of (n, p, hit), so once the insertion point p of
// a key is known its charge is depth[p + hit·(n+1)] — one load where the
// finger replay pops and pushes frames.
//
// The memory half is a monotone cursor advanced by gallop. A directory over
// tree (dir != nil, and its terminator matches the tree's length) replaces
// it key by key: the key's bucket starts at h, and if tree[h-1] < x — all a
// lower bound needs — p is h plus the number of the next dirWindow ids
// below x, counted with flag arithmetic. No load then depends on the
// previous key, so the misses of consecutive keys on a cold hub list
// overlap instead of queueing behind mispredicted scan branches. A start
// the tree does not confirm, a full window and the last dirWindow ids fall
// back to the cursor; whatever the directory holds, p is the true lower
// bound for an ascending tree and stays in [0, n] for any input.
func depthBinary(depth []uint8, keys, tree []graph.V, dir *Directory, wantDst bool, dst []graph.V) (count, ops int, out []graph.V) {
	assertOriented(keys, tree)
	n := len(tree)
	depth = depth[:2*n+1]
	var starts []uint32
	var base graph.V
	var shift uint8
	if dir != nil && len(dir.starts) > 0 && int(dir.starts[len(dir.starts)-1]) == n {
		starts, base, shift = dir.starts, dir.base, dir.shift
	}
	q := 0 // cursor: a lower bound of every later key's insertion point
	for _, x := range keys {
		xx := uint64(x)
		hinted := false
		if len(starts) != 0 && x >= base {
			b := int(uint64(x-base) >> shift)
			if b >= len(starts) {
				b = len(starts) - 1
			}
			if h := int(starts[b]); h > 0 && h+dirWindow <= n && tree[h-1] < x {
				win := tree[h : h+dirWindow : h+dirWindow] // eight terms below
				c := int((uint64(win[0])-xx)>>63 + (uint64(win[1])-xx)>>63 +
					(uint64(win[2])-xx)>>63 + (uint64(win[3])-xx)>>63 +
					(uint64(win[4])-xx)>>63 + (uint64(win[5])-xx)>>63 +
					(uint64(win[6])-xx)>>63 + (uint64(win[7])-xx)>>63)
				q, hinted = h+c, c < dirWindow
			}
		}
		if !hinted && q < n && tree[q] < x {
			q = gallop(tree, q+1, x)
		}
		hit := 0
		if q < n {
			hit = int(((uint64(tree[q]) ^ xx) - 1) >> 63)
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
// bound to it (the Scratch's own over its stamp, or Index.dense), and depth,
// the fillDepth table for the tree's length n — without touching the tree. A
// key x's insertion point is the number of the set's ids below it,
//
//	p = rank[w] + popcount(words[w] & (1<<(x&63) - 1)),  w = x>>6 - first>>6,
//
// its bitmap bit is the hit, and the reference iteration count is a pure
// function of (n, p, hit) that fillDepth tabulated — two L1 loads, a popcount
// and a table load per key, no data-dependent branch. The one branch tests
// whether the key falls in the words the set spans; keys are ascending, so it
// flips at most twice per call (below: p = 0, above: p = n), and it keeps
// every index in range whatever the input.
//
// check is set for a set that is not the Scratch's own: each word read must
// then hold rank[w+1] − rank[w] bits (a second popcount; half again the cost
// of a key, which the scratch's own bitmap need not pay). ok is false — and
// the other results void — when one does not, or a position leaves the
// table: the set is damaged, and the caller redoes the pair without it.
func rankBinary(set *DenseSet, depth []uint8, keys []graph.V, check, wantDst bool, dst []graph.V) (count, ops int, out []graph.V, ok bool) {
	n := (len(depth) - 1) / 2
	base := int(set.first >> 6)
	words := set.words
	rank, next := set.rank[:len(words)], set.rank[1:len(words)+1] // no bounds checks below
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
			return 0, 0, dst, false
		}
		count += hit
		ops += int(depth[at])
	}
	if bad != 0 {
		return 0, 0, dst, false
	}
	// Listing is a second pass, so that the loop above keeps its few values
	// in registers: an append in it spills them all, every key.
	if wantDst && count > 0 {
		for _, x := range keys {
			if w := int(x>>6) - base; uint(w) < uint(len(words)) && words[w]>>(x&63)&1 != 0 {
				dst = append(dst, x)
			}
		}
	}
	return count, ops, dst, true
}

// fillDepth tabulates Algorithm 1's iteration counts for every outcome
// inside the interval [lo, hi) that the reference loop enters after d
// iterations: hit[p] for a key equal to tree[p], miss[p] for an absent key
// with insertion point p. It is the tail tables' argument at any size —
// every tree[mid] comparison is an index comparison against p, so the
// trajectory depends on the tree's length alone. The left spine is walked
// in the loop, right subtrees by recursion (depth ≤ log2 of the size).
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
