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

// LANEMASK sets K1 to the low min(CX, 8) lanes (CX ≥ 1); clobbers AX, BX, CX.
#define LANEMASK \
	MOVQ    $8, BX \
	CMPQ    CX, BX \
	CMOVQLT CX, BX \
	MOVQ    BX, CX \
	MOVL    $1, AX \
	SHLQ    CX, AX \
	DECQ    AX \
	KMOVW   AX, K1

// ROWLANES adds |aₖ − bt[k·stride + lanes]| for one 8-column chunk at
// offset off of the row-k cursor BX into the float64 lane sums acc; Z2
// holds aₖ broadcast, Z31 the abs mask.
#define ROWLANES(off, t, acc) \
	VCVTPS2PD off(BX), t \
	VSUBPD    t, Z2, t   \
	VPANDQ    Z31, t, t  \
	VADDPD    t, acc, acc

// CAPLANES caps the lane sums in acc at the limit broadcast in Z30 with Go's
// own lowering of min(s, limit): MIN(s, limit), whose NaN case yields the
// limit, then MIN of that and s, whose NaN case yields s, ORed together —
// so NaN and signed-zero lanes come out exactly as the portable loop's.
#define CAPLANES(acc) \
	VMINPD Z30, acc, Z5 \
	VMINPD acc, Z5, Z6  \
	VPORQ  Z5, Z6, acc

// func l1RowsAVX512(a *float32, dim int, bt *float32, stride int, dst *float64, n int, limit float64)
//
// dst[j] = min(Σₖ |aₖ − bt[k·stride+j]|, limit) for j < n, n ≥ 1, dim ≥ 1: columns go
// sixteen at a time (two independent accumulator chains, Z0 and Z1), the
// last one to sixteen as one or two chunks, with a masked store for a
// partial chunk. Each lane's float64 operations — widen (exact), subtract,
// clear the sign, add — run in index order from +0, the scalar loop's exact
// sequence. Register plan: SI a, R8 dim, R9 the chunk's column base in bt,
// R10 row bytes, DI dst cursor, DX columns left, BX row-k cursor, CX k.
TEXT ·l1RowsAVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ dim+8(FP), R8
	MOVQ bt+16(FP), R9
	MOVQ stride+24(FP), R10
	SHLQ $2, R10
	MOVQ dst+32(FP), DI
	MOVQ n+40(FP), DX
	VBROADCASTSD limit+48(FP), Z30
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z31

rows16:
	CMPQ DX, $8
	JLE  rows8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   R9, BX
	XORQ   CX, CX

k16:
	VBROADCASTSS (SI)(CX*4), Y2
	VCVTPS2PD    Y2, Z2
	ROWLANES(0, Z3, Z0)
	ROWLANES(32, Z4, Z1)
	ADDQ R10, BX
	INCQ CX
	CMPQ CX, R8
	JLT  k16

	CAPLANES(Z0)
	CAPLANES(Z1)
	VMOVUPD Z0, (DI)
	MOVQ    DX, CX
	SUBQ    $8, CX
	LANEMASK
	VMOVUPD Z1, K1, 64(DI)
	ADDQ    $64, R9
	ADDQ    $128, DI
	SUBQ    $16, DX
	JGT     rows16
	JMP     rowsdone

rows8:
	VPXORQ Z0, Z0, Z0
	MOVQ   R9, BX
	XORQ   CX, CX

k8:
	VBROADCASTSS (SI)(CX*4), Y2
	VCVTPS2PD    Y2, Z2
	ROWLANES(0, Z3, Z0)
	ADDQ R10, BX
	INCQ CX
	CMPQ CX, R8
	JLT  k8

	CAPLANES(Z0)
	MOVQ    DX, CX
	LANEMASK
	VMOVUPD Z0, K1, (DI)

rowsdone:
	VZEROUPPER
	RET
