// Package intersect implements the sorted-adjacency intersection kernels of
// §II-C — binary search (Algorithm 1) and sorted set intersection
// (Algorithm 2) — plus the hybrid decision rule of Eq. (3) and a model of
// the OpenMP-style parallel intersection of §III-C. The intersection size
// |adj(v_i) ∩ adj(v_j)| is the number of triangles closed by edge e_ij, the
// primitive on which both TC and LCC are built.
//
// The package is split into two planes (DESIGN.md §5). The reference
// kernels in this file and elements.go define the *modeled* compute
// charge: their loop-iteration counts are what the simulation bills to
// SimTime, pinned bit-for-bit by the golden tests. The *host* execution
// plane — Scratch with its stamp-set bitmap, dense sets and depth-table
// binary search (scratch.go, kernels.go, index.go, cost.go) — computes the
// same counts and the same charges much faster, and is what every engine
// actually runs. Differential and fuzz tests hold the two planes
// bit-identical.
package intersect

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Method identifies an intersection algorithm.
type Method uint8

const (
	// MethodSSI is sorted set intersection: a linear merge of both lists,
	// O(|A|+|B|).
	MethodSSI Method = iota
	// MethodBinary is binary search: each element of the shorter list is
	// looked up in the longer one, O(|A|·log|B|).
	MethodBinary
	// MethodHybrid picks between the two per pair using Eq. (3).
	MethodHybrid
)

func (m Method) String() string {
	switch m {
	case MethodSSI:
		return "ssi"
	case MethodBinary:
		return "binary"
	case MethodHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// ParseMethod is the inverse of Method.String. The empty string selects
// the paper's default, MethodHybrid.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "hybrid":
		return MethodHybrid, nil
	case "ssi":
		return MethodSSI, nil
	case "binary":
		return MethodBinary, nil
	default:
		return MethodHybrid, fmt.Errorf(`intersect: unknown method %q (want "hybrid", "ssi" or "binary")`, s)
	}
}

// SSI returns |a ∩ b| by simultaneous traversal (Algorithm 2), along with
// the number of loop iterations executed (the modeled-compute charge).
func SSI(a, b []graph.V) (count, ops int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ops++
		switch {
		case a[i] == b[j]:
			count++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return count, ops
}

// debugChecks arms the orientation assertions of the Algorithm 1 kernels.
// Binary does not swap its arguments (callers choose the orientation), so
// a caller that passes the longer list as keys silently degrades
// O(|A|·log|B|) to O(|B|·log|A|) — and, worse, changes the modeled ops
// charge. Tests enable the checks and drive every engine through them to
// prove mis-orientation is impossible from engine code. Toggling is not
// synchronized: call SetDebugChecks only while no engine is running.
var debugChecks bool

// SetDebugChecks enables or disables the kernel debug assertions
// (orientation today). Intended for tests.
func SetDebugChecks(on bool) { debugChecks = on }

// assertOriented panics when the Algorithm 1 kernels are called with the
// keys list longer than the tree list and debug checks are armed.
func assertOriented(keys, tree []graph.V) {
	if debugChecks && len(keys) > len(tree) {
		panic("intersect: binary-search kernel mis-oriented: keys longer than tree (callers must pass the shorter list as keys)")
	}
}

// Binary returns |keys ∩ tree| by looking each key up in tree with binary
// search (Algorithm 1), along with the number of probe iterations. For the
// complexity bound to hold, keys should be the shorter list; Binary does
// not swap on its own — callers (and the paper) choose the orientation.
func Binary(keys, tree []graph.V) (count, ops int) {
	assertOriented(keys, tree)
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
				count++
				lo = hi
			}
		}
	}
	return count, ops
}

// PreferSSI evaluates the decision rule of Eq. (3) for |a| ≤ |b|:
// SSI is theoretically faster when |B|/|A| ≤ log2(|B|) − 1.
func PreferSSI(lenA, lenB int) bool {
	if lenA == 0 || lenB == 0 {
		return true // degenerate; both methods are O(1), pick the merge
	}
	if lenA > lenB {
		lenA, lenB = lenB, lenA
	}
	log2B := bits.Len(uint(lenB)) - 1
	return lenB <= lenA*(log2B-1)
}

// Count returns |a ∩ b| with the given method, orienting the lists so the
// shorter one is the key/merge-limited side, and reports the ops executed.
func Count(method Method, a, b []graph.V) (count, ops int) {
	if len(a) > len(b) {
		a, b = b, a
	}
	switch method {
	case MethodSSI:
		return SSI(a, b)
	case MethodBinary:
		return Binary(a, b)
	default:
		if PreferSSI(len(a), len(b)) {
			return SSI(a, b)
		}
		return Binary(a, b)
	}
}

// UpperSlice returns the suffix of sorted list b containing only elements
// strictly greater than floor. The edge-centric method uses it to count
// each undirected triangle once: for edge e_ij only common neighbours
// v_k with k > j are counted (§II-C).
func UpperSlice(b []graph.V, floor graph.V) []graph.V {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] <= floor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return b[lo:]
}

// --- modeled-time parallel executor (Fig. 6 substitute) ------------------

// ThreadModel models the shared-memory execution of §III-C on a machine
// with a given per-op cost and per-edge parallel-region entry overhead.
// The paper profiles its implementation and finds that entering/leaving
// the OpenMP region *per edge* is the bottleneck that limits scaling to
// 2.0–2.7× on 16 threads; this model reproduces that mechanism so Fig. 6
// can be regenerated on the single-core host this reproduction runs on
// (see DESIGN.md §1).
type ThreadModel struct {
	OpNS float64 // cost of one intersection iteration, ns
	// RegionNS is the cost of entering+leaving a parallel region once
	// (OpenMP fork/join bookkeeping; lower with OMP_WAIT_POLICY=active).
	RegionNS float64
	Cutoff   int // sequential below this length of the split list (§III-C)
}

// DefaultThreadModel calibrates against the paper's observations: ~1 ns per
// merge step and a region-entry cost of order 100 ns with
// OMP_WAIT_POLICY=active (§III-C; the paper measured 2-4% improvement from
// keeping threads spinning).
func DefaultThreadModel() ThreadModel {
	return ThreadModel{OpNS: 1.0, RegionNS: 150, Cutoff: 128}
}

// EdgeTime returns the modeled time (ns) to intersect one pair of lists of
// the given lengths on `threads` threads, assuming the hybrid method.
func (tm ThreadModel) EdgeTime(lenA, lenB, threads int) float64 {
	if lenA > lenB {
		lenA, lenB = lenB, lenA
	}
	var seqOps float64
	var splitLen int
	if PreferSSI(lenA, lenB) {
		seqOps = float64(lenA + lenB)
		splitLen = lenB
	} else {
		log2B := float64(bits.Len(uint(lenB)))
		seqOps = float64(lenA) * log2B
		splitLen = lenA
	}
	if threads <= 1 || splitLen < tm.Cutoff {
		return seqOps * tm.OpNS
	}
	// Chunked execution: the slowest thread carries ceil(work/threads);
	// for SSI each thread also rescans the shorter list, adding lenA.
	perThread := seqOps / float64(threads)
	if PreferSSI(lenA, lenB) {
		perThread += float64(lenA)
	}
	return tm.RegionNS + perThread*tm.OpNS
}
