// AVX-512 fused multi-query select kernels. Layout contract (see multi.go):
// queries are packed with a zero-padded stride of chunkWords(wps) words, so
// query-side chunk loads are full and unmasked; row-side chunk loads are
// masked to exactly wps words, so the final arena row never reads past the
// slice. Hits are written per query q at idx[q*stride+ns[q]] in ascending
// row order, matching the portable kernel bit for bit.

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

// func hammingSelectMulti1(q *uint64, nq int, w *uint64, rows, wps int,
//	mask uint64, bounds, idx, dist *int32, stride int, ns *int32)
//
// Single-chunk rows (wps ≤ 8). Register plan: R8 query base, SI row cursor,
// R9 row index, R10 stride, R11 row bytes, R12 bounds, R13 idx, R14 dist,
// R15 ns, DI/CX inner query cursor, AX distance, BX bound then hit slot,
// DX scratch. K1 masks the row load to wps words.
TEXT ·hammingSelectMulti1(SB), NOSPLIT, $0-88
	MOVQ q+0(FP), R8
	MOVQ w+16(FP), SI
	MOVQ wps+32(FP), R11
	SHLQ $3, R11
	MOVQ mask+40(FP), DX
	KMOVW DX, K1
	MOVQ bounds+48(FP), R12
	MOVQ idx+56(FP), R13
	MOVQ dist+64(FP), R14
	MOVQ stride+72(FP), R10
	MOVQ ns+80(FP), R15
	XORQ R9, R9
	CMPQ R9, rows+24(FP)
	JGE  done1

row1:
	VMOVDQU64.Z (SI), K1, Z0
	MOVQ R8, DI
	XORQ CX, CX

q1:
	VPXORQ   (DI), Z0, Z2
	VPOPCNTQ Z2, Z2

	// Horizontal sum of the eight 64-bit popcounts into AX.
	VEXTRACTI64X4 $1, Z2, Y3
	VPADDQ        Y3, Y2, Y2
	VEXTRACTI64X2 $1, Y2, X3
	VPADDQ        X3, X2, X2
	VPSRLDQ       $8, X2, X3
	VPADDQ        X3, X2, X2
	VMOVQ         X2, AX

	MOVLQSX (R12)(CX*4), BX
	CMPQ    AX, BX
	JGT     skip1

	// Hit: idx[q*stride+n] = row, dist[...] = h, ns[q]++.
	MOVLQSX (R15)(CX*4), DX
	MOVQ    CX, BX
	IMULQ   R10, BX
	ADDQ    DX, BX
	MOVL    R9, (R13)(BX*4)
	MOVL    AX, (R14)(BX*4)
	INCQ    DX
	MOVL    DX, (R15)(CX*4)

skip1:
	ADDQ $64, DI
	INCQ CX
	CMPQ CX, nq+8(FP)
	JLT  q1

	ADDQ R11, SI
	INCQ R9
	CMPQ R9, rows+24(FP)
	JLT  row1

done1:
	VZEROUPPER
	RET

// func hammingSelectMulti2(q *uint64, nq int, w *uint64, rows, wps int,
//	mask uint64, bounds, idx, dist *int32, stride int, ns *int32)
//
// Two-chunk rows (9 ≤ wps ≤ 16): a full first chunk and a tail chunk masked
// to wps−8 words. Queries are packed with a 16-word stride. Same register
// plan as hammingSelectMulti1.
TEXT ·hammingSelectMulti2(SB), NOSPLIT, $0-88
	MOVQ q+0(FP), R8
	MOVQ w+16(FP), SI
	MOVQ wps+32(FP), R11
	SHLQ $3, R11
	MOVL $0xFF, DX
	KMOVW DX, K1
	MOVQ mask+40(FP), DX
	KMOVW DX, K2
	MOVQ bounds+48(FP), R12
	MOVQ idx+56(FP), R13
	MOVQ dist+64(FP), R14
	MOVQ stride+72(FP), R10
	MOVQ ns+80(FP), R15
	XORQ R9, R9
	CMPQ R9, rows+24(FP)
	JGE  done2

row2:
	VMOVDQU64   (SI), Z0
	VMOVDQU64.Z 64(SI), K2, Z1
	MOVQ R8, DI
	XORQ CX, CX

q2:
	VPXORQ   (DI), Z0, Z2
	VPOPCNTQ Z2, Z2
	VPXORQ   64(DI), Z1, Z3
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z2

	VEXTRACTI64X4 $1, Z2, Y3
	VPADDQ        Y3, Y2, Y2
	VEXTRACTI64X2 $1, Y2, X3
	VPADDQ        X3, X2, X2
	VPSRLDQ       $8, X2, X3
	VPADDQ        X3, X2, X2
	VMOVQ         X2, AX

	MOVLQSX (R12)(CX*4), BX
	CMPQ    AX, BX
	JGT     skip2

	MOVLQSX (R15)(CX*4), DX
	MOVQ    CX, BX
	IMULQ   R10, BX
	ADDQ    DX, BX
	MOVL    R9, (R13)(BX*4)
	MOVL    AX, (R14)(BX*4)
	INCQ    DX
	MOVL    DX, (R15)(CX*4)

skip2:
	ADDQ $128, DI
	INCQ CX
	CMPQ CX, nq+8(FP)
	JLT  q2

	ADDQ R11, SI
	INCQ R9
	CMPQ R9, rows+24(FP)
	JLT  row2

done2:
	VZEROUPPER
	RET

// Cross-min kernels (see HammingCrossMin). Lane l of a chunk is candidate
// row 8c+l; lanes past the candidate's last row are masked out of the row
// load and the colMin store, and forced to all ones before the horizontal
// min so they never win rowMin.

DATA crossLo<>+0(SB)/8, $0
DATA crossLo<>+8(SB)/8, $2
DATA crossLo<>+16(SB)/8, $4
DATA crossLo<>+24(SB)/8, $6
DATA crossLo<>+32(SB)/8, $8
DATA crossLo<>+40(SB)/8, $10
DATA crossLo<>+48(SB)/8, $12
DATA crossLo<>+56(SB)/8, $14
GLOBL crossLo<>(SB), RODATA|NOPTR, $64

DATA crossHi<>+0(SB)/8, $1
DATA crossHi<>+8(SB)/8, $3
DATA crossHi<>+16(SB)/8, $5
DATA crossHi<>+24(SB)/8, $7
DATA crossHi<>+32(SB)/8, $9
DATA crossHi<>+40(SB)/8, $11
DATA crossHi<>+48(SB)/8, $13
DATA crossHi<>+56(SB)/8, $15
GLOBL crossHi<>(SB), RODATA|NOPTR, $64

// CHUNKMASK sets BX = min(DX, 8), the chunk's row count, K3 to its lanes
// and K4 to the rest.
#define CHUNKMASK \
	MOVQ    $8, BX \
	CMPQ    DX, BX \
	CMOVQLT DX, BX \
	MOVQ    BX, CX \
	MOVL    $1, AX \
	SHLQ    CX, AX \
	DECQ    AX \
	KMOVW   AX, K3 \
	KNOTW   K3, K4

// ROWMIN folds the chunk's distances in Z6 (Z5: all ones past the last
// row) to their minimum and lowers rowMin[CX] to it.
#define ROWMIN \
	VPORQ         Z5, Z6, Z6 \
	VEXTRACTI64X4 $1, Z6, Y7 \
	VPMINUQ       Y7, Y6, Y6 \
	VEXTRACTI128  $1, Y6, X7 \
	VPMINUQ       X7, X6, X6 \
	VPSHUFD       $0x4E, X6, X7 \
	VPMINUQ       X7, X6, X6 \
	VMOVQ         X6, AX \
	MOVL          (R12)(CX*4), BX \
	CMPL          AX, BX \
	CMOVLLT       AX, BX \
	MOVL          BX, (R12)(CX*4)

// func hammingCrossMin1(q *uint64, nq int, w *uint64, n int, rowMin, colMin *int32)
//
// Register plan: R8 query base, R9 nq, SI row cursor, DX rows left, R12
// rowMin, R13 colMin cursor, DI/CX query cursor, Z2 the chunk's rows, Z4
// column minima, Z29 all ones.
TEXT ·hammingCrossMin1(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), R8
	MOVQ nq+8(FP), R9
	MOVQ w+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ rowMin+32(FP), R12
	MOVQ colMin+40(FP), R13
	VPTERNLOGQ $0xff, Z29, Z29, Z29

chunk1:
	CHUNKMASK
	VMOVDQU64.Z (SI), K3, Z2
	VMOVDQA64   Z29, Z4
	VMOVDQA64.Z Z29, K4, Z5
	MOVQ R8, DI
	XORQ CX, CX

q1:
	VPXORQ.BCST (DI), Z2, Z6
	VPOPCNTQ    Z6, Z6
	VPMINUQ     Z6, Z4, Z4
	ROWMIN
	ADDQ $64, DI
	INCQ CX
	CMPQ CX, R9
	JLT  q1

	VPMOVQD Z4, K3, (R13)
	ADDQ $64, SI
	ADDQ $32, R13
	SUBQ $8, DX
	JGT  chunk1
	VZEROUPPER
	RET

// func hammingCrossMin2(q *uint64, nq int, w *uint64, n int, rowMin, colMin *int32)
//
// As hammingCrossMin1, but a chunk of eight 2-word rows spans two masked
// loads (K1, K2), which VPERMI2Q splits into the rows' low words (Z2) and
// high words (Z3).
TEXT ·hammingCrossMin2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), R8
	MOVQ nq+8(FP), R9
	MOVQ w+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ rowMin+32(FP), R12
	MOVQ colMin+40(FP), R13
	VPTERNLOGQ $0xff, Z29, Z29, Z29
	VMOVDQU64  crossLo<>(SB), Z30
	VMOVDQU64  crossHi<>(SB), Z31

chunk2:
	CHUNKMASK
	// The chunk's 2·BX words: K1 the first eight, K2 the rest.
	MOVQ  BX, CX
	SHLQ  $1, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2

	VMOVDQU64.Z (SI), K1, Z0
	VMOVDQU64.Z 64(SI), K2, Z1
	VMOVDQA64   Z30, Z2
	VPERMI2Q    Z1, Z0, Z2
	VMOVDQA64   Z31, Z3
	VPERMI2Q    Z1, Z0, Z3
	VMOVDQA64   Z29, Z4
	VMOVDQA64.Z Z29, K4, Z5
	MOVQ R8, DI
	XORQ CX, CX

q2x:
	VPXORQ.BCST (DI), Z2, Z6
	VPOPCNTQ    Z6, Z6
	VPXORQ.BCST 8(DI), Z3, Z7
	VPOPCNTQ    Z7, Z7
	VPADDQ      Z7, Z6, Z6
	VPMINUQ     Z6, Z4, Z4
	ROWMIN
	ADDQ $64, DI
	INCQ CX
	CMPQ CX, R9
	JLT  q2x

	VPMOVQD Z4, K3, (R13)
	ADDQ $128, SI
	ADDQ $32, R13
	SUBQ $8, DX
	JGT  chunk2
	VZEROUPPER
	RET
