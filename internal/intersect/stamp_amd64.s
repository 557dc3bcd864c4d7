#include "textflag.h"

// The AVX-512 bodies of the two stamp-set kernels (stamp_amd64.go,
// DESIGN.md §5), eight 64-bit lanes per instruction. They use AVX512F and
// AVX512_VPOPCNTDQ instructions (and AVX's VMOVQ), and Z0-Z7, K1-K3: a caller
// reaches them only when avx512Missing found both features and the
// OS-enabled AVX, ZMM and opmask state.
// Both end with VZEROUPPER, so the SSE code they return to pays no
// transition.

// func andCountAVX512(words, stamp []uint64) (count int, sum uint64)
//
// count = Σ popcount(words[i] & stamp[i]), sum = Σ words[i] (mod 2^64), over
// i < len(words); stamp must be at least as long. The remainder of fewer
// than eight words is loaded under a lane mask, which reads nothing past
// either slice.
TEXT ·andCountAVX512(SB), NOSPLIT, $0-64
	MOVQ   words_base+0(FP), SI
	MOVQ   words_len+8(FP), CX
	MOVQ   stamp_base+24(FP), DI
	VPXORQ Z0, Z0, Z0 // popcounts, per lane
	VPXORQ Z1, Z1, Z1 // sums, per lane

andLoop:
	CMPQ      CX, $8
	JB        andTail
	VMOVDQU64 (SI), Z2
	VPANDQ    (DI), Z2, Z3
	VPOPCNTQ  Z3, Z3
	VPADDQ    Z3, Z0, Z0
	VPADDQ    Z2, Z1, Z1
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       andLoop

andTail:
	TESTQ       CX, CX
	JZ          andReduce
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K1 // lanes [0, CX)
	VMOVDQU64.Z (SI), K1, Z2
	VMOVDQU64.Z (DI), K1, Z3
	VPANDQ      Z3, Z2, Z3
	VPOPCNTQ    Z3, Z3
	VPADDQ      Z3, Z0, Z0
	VPADDQ      Z2, Z1, Z1

andReduce:
	VALIGNQ $4, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VALIGNQ $2, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VALIGNQ $1, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VMOVQ   X0, AX
	VALIGNQ $4, Z1, Z1, Z2
	VPADDQ  Z2, Z1, Z1
	VALIGNQ $2, Z1, Z1, Z2
	VPADDQ  Z2, Z1, Z1
	VALIGNQ $1, Z1, Z1, Z2
	VPADDQ  Z2, Z1, Z1
	VMOVQ   X1, BX
	MOVQ    AX, count+48(FP)
	MOVQ    BX, sum+56(FP)
	VZEROUPPER
	RET

// func probeCountAVX512(words []uint64, b []graph.V) (count, n int)
//
// n is the index of b's first id whose word index id>>6 is not below
// len(words), len(b) if there is none; count is the number of ids of b[:n]
// whose bit is set in words. Each chunk of eight ids is widened to 64 bits,
// its word indices are compared with len(words) before the gather, and a
// chunk holding an out-of-extent id gathers only the lanes below the first
// one — so no lane ever reads past words, whatever order b is in. The
// remainder of fewer than eight ids is loaded under a lane mask.
TEXT ·probeCountAVX512(SB), NOSPLIT, $0-64
	MOVQ         words_base+0(FP), SI
	MOVQ         words_len+8(FP), AX
	MOVQ         b_base+24(FP), DI
	MOVQ         b_len+32(FP), CX
	VPBROADCASTQ AX, Z5 // len(words), per lane
	MOVQ         $63, AX
	VPBROADCASTQ AX, Z6 // bit-in-word mask
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z7
	VPXORQ       Z0, Z0, Z0 // hits, per lane

probeLoop:
	CMPQ       CX, $8
	JB         probeTail
	VPMOVZXDQ  (DI), Z1
	VPSRLQ     $6, Z1, Z2
	VPCMPUQ    $5, Z5, Z2, K2 // K2: lanes whose word index is >= len(words)
	KORTESTW   K2, K2
	JNZ        probeCut
	KXNORW     K3, K3, K3
	VPXORQ     Z3, Z3, Z3 // the gather merges into Z3: no chain through the last chunk's
	VPGATHERQQ (SI)(Z2*8), K3, Z3
	VPANDQ     Z6, Z1, Z4
	VPSRLVQ    Z4, Z3, Z3
	VPANDQ     Z7, Z3, Z3
	VPADDQ     Z3, Z0, Z0
	ADDQ       $32, DI
	SUBQ       $8, CX
	JMP        probeLoop

probeTail:
	TESTQ       CX, CX
	JZ          probeAll
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K1 // lanes [0, CX)
	VPMOVZXDQ.Z (DI), K1, Z1
	VPSRLQ      $6, Z1, Z2
	VPCMPUQ     $5, Z5, Z2, K1, K2
	KORTESTW    K2, K2
	JNZ         probeCut
	KMOVW       K1, K3
	VPXORQ      Z3, Z3, Z3
	VPGATHERQQ  (SI)(Z2*8), K3, Z3
	VPANDQ      Z6, Z1, Z4
	VPSRLVQ     Z4, Z3, Z3
	VPANDQ      Z7, Z3, Z3
	VPADDQ      Z3, Z0, Z0

probeAll:
	MOVQ b_len+32(FP), BX
	JMP  probeReduce

probeCut:
	// The first out-of-extent lane ends the scan: gather the lanes below it.
	KMOVW      K2, AX
	BSFL       AX, CX
	MOVL       $1, AX
	SHLL       CX, AX
	DECL       AX
	KMOVW      AX, K3
	VPXORQ     Z3, Z3, Z3
	VPGATHERQQ (SI)(Z2*8), K3, Z3
	VPANDQ     Z6, Z1, Z4
	VPSRLVQ    Z4, Z3, Z3
	VPANDQ     Z7, Z3, Z3
	VPADDQ     Z3, Z0, Z0
	MOVQ       DI, BX
	SUBQ       b_base+24(FP), BX
	SHRQ       $2, BX
	ADDQ       CX, BX

probeReduce:
	VALIGNQ $4, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VALIGNQ $2, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VALIGNQ $1, Z0, Z0, Z2
	VPADDQ  Z2, Z0, Z0
	VMOVQ   X0, AX
	MOVQ    AX, count+48(FP)
	MOVQ    BX, n+56(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
