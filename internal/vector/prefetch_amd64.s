// Cache-line prefetch (see prefetch_amd64.go).

#include "textflag.h"

// func prefetch(p unsafe.Pointer, n uintptr)
//
// SI walks the 64-byte lines from the one holding p up to the one holding
// p+n−1; DX is p+n. A prefetch never faults, so the line below p and a range
// crossing into an unmapped page are both harmless.
TEXT ·prefetch(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JZ   done
	LEAQ (SI)(CX*1), DX
	ANDQ $-64, SI

loop:
	PREFETCHT0 (SI)
	ADDQ $64, SI
	CMPQ SI, DX
	JB   loop

done:
	RET
