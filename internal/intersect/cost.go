package intersect

import "repro/internal/graph"

// The cost model of the decoupled kernel layer (DESIGN.md §5).
//
// The simulation charges every intersection with the exact number of loop
// iterations the paper's Algorithm 1 (binary search) or Algorithm 2 (SSI)
// would execute — that count feeds rma.Rank.Compute and therefore SimTime,
// which the golden tests pin bit for bit. The host kernels are free to
// count |a ∩ b| any way they like as long as the charge they report is
// that reference count. This file derives the Algorithm 2 charge
// analytically, so the bitmap probe kernel (which never walks the lists in
// merge order) can still charge the exact SSI ops.
//
// Algorithm 2's traversal advances one cursor per iteration, or both on a
// match, and stops when either list is exhausted, so
//
//	ops = iEnd + jEnd − count
//
// where (iEnd, jEnd) are the cursors at exit. Which list exhausts first is
// decided by the larger last element, and the surviving cursor stops at
// the number of elements ≤ the exhausted list's maximum (strictly
// increasing inputs make that an upper bound):
//
//	a[m−1] ≤ b[n−1]:  iEnd = m,  jEnd = |{y ∈ b : y ≤ a[m−1]}|
//	a[m−1] > b[n−1]:  jEnd = n,  iEnd = |{x ∈ a : x ≤ b[n−1]}|
//
// (when the maxima are equal both cursors run out: the first case yields
// jEnd = n). ssiOps computes this with one O(log) search — or one rank query,
// when the searched list comes with a DenseSet — instead of the O(m+n)
// replay; equiv and fuzz tests hold it bit-identical to the reference loop
// on randomized inputs.

// ssiOps returns the exact Algorithm 2 iteration count for a ∩ b, given
// count = |a ∩ b|. bSet is nil, or a DenseSet bound to b. It is symmetric in
// its list arguments, like the reference loop's charge. Inputs must be
// strictly increasing.
func ssiOps(a, b []graph.V, count int, bSet *DenseSet) int {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	if a[m-1] <= b[n-1] {
		if bSet != nil {
			return m + bSet.upperBound(b, a[m-1]) - count
		}
		return m + upperBound(b, a[m-1]) - count
	}
	return upperBound(a, b[n-1]) + n - count
}
