package intersect

import "repro/internal/graph"

// This file adds element-listing variants of the §II-C intersection
// kernels. Counting is enough for the pull-based engine (Algorithm 3 needs
// only |adj(v_i) ∩ adj(v_j)|), but the push-based engine of the future-work
// dichotomy (§VI ii) must know *which* common neighbours close a triangle
// so it can scatter a contribution to each corner's owner. All variants
// return the intersection in ascending order and report the same ops charge
// as their counting counterparts.

// ssiElements appends a ∩ b to dst by simultaneous traversal (Algorithm 2)
// and returns the extended slice plus the loop iterations executed.
func ssiElements(a, b []graph.V, dst []graph.V) ([]graph.V, int) {
	i, j, ops := 0, 0, 0
	for i < len(a) && j < len(b) {
		ops++
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst, ops
}

// BinaryElements appends keys ∩ tree to dst by binary search (Algorithm 1)
// and returns the extended slice plus the probe iterations executed. As
// with Binary, keys should be the shorter list; because keys is sorted the
// appended elements are in ascending order.
func BinaryElements(keys, tree []graph.V, dst []graph.V) ([]graph.V, int) {
	assertOriented(keys, tree)
	ops := 0
	for _, x := range keys {
		lo, hi := 0, len(tree)
		for lo < hi {
			ops++
			mid := int(uint(lo+hi) >> 1)
			switch {
			case tree[mid] < x:
				lo = mid + 1
			case tree[mid] > x:
				hi = mid
			default:
				dst = append(dst, x)
				lo = hi
			}
		}
	}
	return dst, ops
}

// Elements appends a ∩ b to dst using the given method, orienting the lists
// so the shorter one is the key/merge-limited side, and reports the ops
// executed. The result is ascending and identical for every method; only
// the ops charge differs.
func Elements(method Method, a, b []graph.V, dst []graph.V) ([]graph.V, int) {
	if len(a) > len(b) {
		a, b = b, a
	}
	switch method {
	case MethodSSI:
		return ssiElements(a, b, dst)
	case MethodBinary:
		return BinaryElements(a, b, dst)
	default:
		if PreferSSI(len(a), len(b)) {
			return ssiElements(a, b, dst)
		}
		return BinaryElements(a, b, dst)
	}
}
