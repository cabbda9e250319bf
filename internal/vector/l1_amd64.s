// ℓ₁ kernels (see l1_amd64.go).
//
// AVX-512 block kernel: one call processes exactly 64
// elements: eight 8-float chunks are widened to float64 (exact), subtracted,
// made absolute with a sign mask, and accumulated into eight independent
// float64 lanes; the lanes are reduced pairwise at the end. The reduction
// order is fixed, so results are deterministic across runs (they differ from
// the scalar path only in summation order).

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func l1Block64AVX512(a, b *float32) float64
//
// Register plan: SI/DI element pointers, Z0/Z1 widened chunks, Z2 diff,
// Z4 lane accumulators, Z5 abs mask (sign bit cleared).
#define L1CHUNK(off) \
	VCVTPS2PD off(SI), Z0 \
	VCVTPS2PD off(DI), Z1 \
	VSUBPD    Z1, Z0, Z2  \
	VPANDQ    Z5, Z2, Z2  \
	VADDPD    Z2, Z4, Z4

TEXT ·l1Block64AVX512(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z5
	VPXORQ Z4, Z4, Z4

	L1CHUNK(0)
	L1CHUNK(32)
	L1CHUNK(64)
	L1CHUNK(96)
	L1CHUNK(128)
	L1CHUNK(160)
	L1CHUNK(192)
	L1CHUNK(224)

	// Pairwise lane reduction: 8 → 4 → 2 → 1 float64.
	VEXTRACTF64X4 $1, Z4, Y3
	VADDPD        Y3, Y4, Y4
	VEXTRACTF128  $1, Y4, X3
	VADDPD        X3, X4, X4
	VPERMILPD     $1, X4, X3
	VADDSD        X3, X4, X4
	VMOVSD        X4, ret+16(FP)
	VZEROUPPER
	RET

// func l1Tail4AVX(a, b0, b1, b2, b3 *float32, n int, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64)
//
// rₖ = sₖ + Σᵢ |aᵢ − bₖᵢ| over n ≥ 1 elements, each lane accumulated element
// by element in index order — the scalar tail's exact sequence of float64
// operations, four lanes to one YMM register. Register plan: SI/R8–R11
// element pointers, AX index, CX n, X0/Y0 the four bₖᵢ, X1/Y1 aᵢ broadcast,
// Y2 difference, Y4 lane sums, Y5 abs mask. AVX only.
TEXT ·l1Tail4AVX(SB), NOSPLIT, $0-112
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VMOVUPD s0+48(FP), Y4
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X5
	VMOVDDUP X5, X5
	VINSERTF128 $1, X5, Y5, Y5
	XORQ AX, AX

tail4loop:
	VMOVSS       (R8)(AX*4), X0
	VINSERTPS    $0x10, (R9)(AX*4), X0, X0
	VINSERTPS    $0x20, (R10)(AX*4), X0, X0
	VINSERTPS    $0x30, (R11)(AX*4), X0, X0
	VCVTPS2PD    X0, Y0
	VBROADCASTSS (SI)(AX*4), X1
	VCVTPS2PD    X1, Y1
	VSUBPD       Y0, Y1, Y2
	VANDPD       Y5, Y2, Y2
	VADDPD       Y2, Y4, Y4
	INCQ         AX
	CMPQ         AX, CX
	JLT          tail4loop

	VMOVUPD Y4, r0+80(FP)
	VZEROUPPER
	RET
