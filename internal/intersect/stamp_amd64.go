package intersect

import "repro/internal/graph"

// The AVX-512 bodies of andCount, probeCount and rankBinary's key loop
// (stamp_amd64.s). Each returns what its Go loop returns for the same input.

//go:noescape
func andCountAVX512(words, stamp []uint64) (count int, sum uint64)

//go:noescape
func probeCountAVX512(words []uint64, b []graph.V) (count, n int)

//go:noescape
func rankCountAVX512(words []uint64, rank []uint32, depth []uint8, keys []graph.V, base int, check bool) (count, ops int, ok bool)

// cpuid runs CPUID for leaf eaxArg, subleaf ecxArg; xgetbv reads XCR0.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// avx512Missing names the first thing the AVX-512 bodies need that this host
// lacks, "" when it has them all: AVX512F and AVX512_VPOPCNTDQ (CPUID leaf
// 7), and the OS saving the SSE, AVX, opmask and ZMM state (XCR0 bits 1, 2,
// 5, 6 and 7, read by XGETBV once CPUID leaf 1 reports OSXSAVE).
func avx512Missing() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 {
		return "OSXSAVE"
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return "OS-enabled ZMM and opmask state"
	}
	if maxLeaf < 7 {
		return "AVX512F"
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ebx7&(1<<16) == 0 {
		return "AVX512F"
	}
	if ecx7&(1<<14) == 0 {
		return "AVX512_VPOPCNTDQ"
	}
	return ""
}
