// AVX-512F sketch construction kernel for K = 1 builders (Algorithm 2).
// Layout contract (see Builder in sketch.go): the pair arrays hold whole
// 64-pair words, padded with (index 0, NaN threshold), so the kernel reads
// no partial word and the padding pairs yield bit 0.

#include "textflag.h"

// func buildK1(dst *uint64, v *float32, pi *int32, pt *float32, words int)
//
// Word w of dst gets bit j = v[pi[64w+j]] ≥ pt[64w+j]. Each word is four
// steps of sixteen pairs: a 512-bit load of the indices, a VGATHERDPS of the
// sixteen v entries they name, a VCMPPS against the thresholds with
// predicate 0x1d (GE_OQ: greater or equal, false when either side is NaN,
// as Go's >= is) and a KMOVW of the sixteen result bits. The four gathers
// use their own mask registers (a gather clears its mask as it completes)
// and start from zeroed destinations, so the steps carry no dependency
// between them.
//
// The gathers read v without bounds checks: the caller guarantees every
// index is in [0, len(v)) and that pi and pt hold 64·words entries.
//
// Register plan: DI dst cursor, SI v base, R8 index cursor, R9 threshold
// cursor, CX words left, AX/BX/DX/R10 the four 16-bit steps.
TEXT ·buildK1(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ pi+16(FP), R8
	MOVQ pt+24(FP), R9
	MOVQ words+32(FP), CX
	TESTQ CX, CX
	JZ   done

word:
	VMOVDQU32 (R8), Z0
	VMOVDQU32 64(R8), Z1
	VMOVDQU32 128(R8), Z2
	VMOVDQU32 192(R8), Z3
	KXNORW    K1, K1, K1
	KXNORW    K2, K2, K2
	KXNORW    K3, K3, K3
	KXNORW    K4, K4, K4
	VPXORD    Z4, Z4, Z4
	VPXORD    Z5, Z5, Z5
	VPXORD    Z6, Z6, Z6
	VPXORD    Z7, Z7, Z7
	VGATHERDPS (SI)(Z0*4), K1, Z4
	VGATHERDPS (SI)(Z1*4), K2, Z5
	VGATHERDPS (SI)(Z2*4), K3, Z6
	VGATHERDPS (SI)(Z3*4), K4, Z7
	VCMPPS    $0x1d, (R9), Z4, K1
	VCMPPS    $0x1d, 64(R9), Z5, K2
	VCMPPS    $0x1d, 128(R9), Z6, K3
	VCMPPS    $0x1d, 192(R9), Z7, K4
	KMOVW     K1, AX
	KMOVW     K2, BX
	KMOVW     K3, DX
	KMOVW     K4, R10
	SHLQ      $16, BX
	SHLQ      $32, DX
	SHLQ      $48, R10
	ORQ       BX, AX
	ORQ       DX, R10
	ORQ       R10, AX
	MOVQ      AX, (DI)
	ADDQ      $256, R8
	ADDQ      $256, R9
	ADDQ      $8, DI
	DECQ      CX
	JNZ       word

done:
	VZEROUPPER
	RET
