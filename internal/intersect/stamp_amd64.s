#include "textflag.h"

// The AVX-512 bodies of the two stamp-set kernels and of the rank query's key
// loop (stamp_amd64.go, DESIGN.md §5), eight 64-bit lanes per instruction.
// They use AVX512F and AVX512_VPOPCNTDQ instructions (and AVX's VMOVQ), and
// Z0-Z12, Z16-Z23, K1-K7: a caller reaches them only when avx512Missing found
// both features and the OS-enabled AVX, ZMM and opmask state.
// All end with VZEROUPPER, so the SSE code they return to pays no
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

// func rankCountAVX512(words []uint64, rank []uint32, depth []uint8, keys []graph.V, base int, check bool) (count, ops int, ok bool)
//
// rankCountGeneric's result for the same input (scratch.go's rankBinary has
// the derivation): per key x, w = x>>6 - base; in the span (w < len(words))
// p = rank[w] + popcount(words[w] & (1<<(x&63) - 1)) and hit = the bit, below
// it p = 0, above it p = n, a miss; then count += hit and ops += depth[at],
// at = p + hit·(n+1), n = (len(depth)-1)/2. Every gather reads only what it
// may: words and rank under the in-span lanes (rank is len(words)+1 long, so
// rank[w+1] is in range), depth under the step's lanes once no at is past
// len(depth) — as the dword at depth+at, whose three bytes past the table the
// caller guarantees (depthSlack). Keys load under a lane mask, the remainder's
// fewer than eight included.
TEXT ·rankCountAVX512(SB), NOSPLIT, $0-129
	MOVQ         words_base+0(FP), SI
	MOVQ         words_len+8(FP), AX
	VPBROADCASTQ AX, Z17 // len(words)
	MOVQ         rank_base+24(FP), R8
	LEAQ         4(R8), R10 // &rank[1]
	MOVQ         depth_base+48(FP), R9
	MOVQ         depth_len+56(FP), AX
	VPBROADCASTQ AX, Z22 // len(depth)
	DECQ         AX
	SARQ         $1, AX
	VPBROADCASTQ AX, Z20 // n
	INCQ         AX
	VPBROADCASTQ AX, Z21 // n+1
	MOVQ         base+96(FP), AX
	VPBROADCASTQ AX, Z16 // the set's first word
	MOVQ         $63, AX
	VPBROADCASTQ AX, Z18
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z19
	MOVQ         $0xff, AX
	VPBROADCASTQ AX, Z23
	MOVQ         keys_base+72(FP), DI
	MOVQ         keys_len+80(FP), CX
	MOVBLZX      check+104(FP), BX
	VPXORQ       Z0, Z0, Z0    // hits, per lane
	VPXORQ       Z11, Z11, Z11 // check residues, ORed
	VPXORQ       Z12, Z12, Z12 // charges, per lane
	TESTQ        CX, CX
	JZ           rankReduce

rankLoop:
	MOVL $0xff, AX
	CMPQ CX, $8
	JAE  rankLanes
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

rankLanes:
	KMOVW       AX, K7 // this step's keys
	VPMOVZXDQ.Z (DI), K7, Z1
	VPSRLQ      $6, Z1, Z2
	VPCMPUQ     $5, Z16, Z2, K7, K4 // K4: not below the span
	VPSUBQ      Z16, Z2, Z2         // w; wraps below the span
	VPCMPUQ     $1, Z17, Z2, K7, K1 // K1: in the span
	KANDNW      K4, K1, K4          // K4: above it
	KMOVW       K1, K2
	VPXORQ      Z3, Z3, Z3
	VPGATHERQQ  (SI)(Z2*8), K2, Z3  // words[w], 0 outside the span
	KMOVW       K1, K2
	VPXORQ      Z4, Z4, Z4
	VPGATHERQD  (R8)(Z2*4), K2, Y4  // rank[w], 0 outside the span
	VPMOVZXDQ   Y4, Z4
	VPANDQ      Z18, Z1, Z5         // bit
	VPSLLVQ     Z5, Z19, Z6
	VPTESTMQ    Z6, Z3, K5          // K5: hits
	VPSUBQ      Z19, Z6, Z6
	VPANDQ      Z3, Z6, Z6
	VPOPCNTQ    Z6, Z6
	VPADDQ      Z4, Z6, Z6          // p, in the span; 0 outside it
	TESTB       BX, BX
	JZ          rankAt
	KMOVW       K1, K2
	VPXORQ      Z8, Z8, Z8
	VPGATHERQD  (R10)(Z2*4), K2, Y8 // rank[w+1], 0 outside the span
	VPMOVZXDQ   Y8, Z8
	VPOPCNTQ    Z3, Z9
	VPADDQ      Z4, Z9, Z9
	VPSUBQ      Z8, Z9, Z9          // rank[w] + popcount(words[w]) - rank[w+1]
	VPORQ       Z9, Z11, Z11

rankAt:
	VMOVDQA64  Z20, K4, Z6          // p = n above the span
	VPADDQ     Z21, Z6, K5, Z6      // at
	VPCMPUQ    $5, Z22, Z6, K7, K6
	KORTESTW   K6, K6
	JNZ        rankFail
	KMOVW      K7, K2
	VPXORQ     Z10, Z10, Z10
	VPGATHERQD (R9)(Z6*1), K2, Y10  // the dword at depth+at
	VPMOVZXDQ  Y10, Z10
	VPANDQ     Z23, Z10, Z10        // depth[at]
	VPADDQ     Z10, Z12, Z12
	VPADDQ     Z19, Z0, K5, Z0
	ADDQ       $32, DI
	SUBQ       $8, CX
	JA         rankLoop

rankReduce:
	VPTESTMQ Z11, Z11, K1
	KORTESTW K1, K1
	JNZ      rankFail
	VALIGNQ  $4, Z0, Z0, Z2
	VPADDQ   Z2, Z0, Z0
	VALIGNQ  $2, Z0, Z0, Z2
	VPADDQ   Z2, Z0, Z0
	VALIGNQ  $1, Z0, Z0, Z2
	VPADDQ   Z2, Z0, Z0
	VMOVQ    X0, AX
	VALIGNQ  $4, Z12, Z12, Z2
	VPADDQ   Z2, Z12, Z12
	VALIGNQ  $2, Z12, Z12, Z2
	VPADDQ   Z2, Z12, Z12
	VALIGNQ  $1, Z12, Z12, Z2
	VPADDQ   Z2, Z12, Z12
	VMOVQ    X12, DX
	MOVQ     AX, count+112(FP)
	MOVQ     DX, ops+120(FP)
	MOVB     $1, ok+128(FP)
	VZEROUPPER
	RET

rankFail:
	MOVQ $0, count+112(FP)
	MOVQ $0, ops+120(FP)
	MOVB $0, ok+128(FP)
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
