//go:build !amd64

package intersect

import (
	"runtime"

	"repro/internal/graph"
)

// Off amd64 the stamp kernels and the rank query are their Go loops:
// useAVX512 is false, so nothing calls these.

func avx512Missing() string { return "AVX-512 (GOARCH " + runtime.GOARCH + ")" }

func andCountAVX512(words, stamp []uint64) (int, uint64) { panic("intersect: no AVX-512 kernels") }

func probeCountAVX512(words []uint64, b []graph.V) (int, int) { panic("intersect: no AVX-512 kernels") }

func rankCountAVX512(words []uint64, rank []uint32, depth []uint8, keys []graph.V, base int, check bool) (int, int, bool) {
	panic("intersect: no AVX-512 kernels")
}
