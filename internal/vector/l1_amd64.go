package vector

// Vector kernels for the ℓ₁ distance, the ground distance of every
// default EMD configuration and therefore the rank stage's hottest loop.
// The scalar loop converts, subtracts, and accumulates one element at a
// time with a loop-carried dependency on the float64 sum; the vector kernel
// widens 8 float32 lanes to float64 per step (the conversion is exact, so
// per-element values match the scalar path) and keeps 8 independent
// partial sums, reduced pairwise once per 64-element block. Requires
// AVX-512F and OS support for ZMM state, detected at startup.
// L1x4's AVX tail kernel keeps each lane's scalar order and puts the four
// lane sums in one register, masking the sign where Go's math.Abs goes
// through a general register. L1Transposed's AVX-512 kernel runs the same
// per-lane sequence over eight columns of a transposed block at a time.

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask.
func xgetbv() (eax, edx uint32)

// l1Block64AVX512 returns Σ|aᵢ−bᵢ| over exactly 64 elements, computed in
// float64 with a fixed 8-lane pairwise reduction order.
//
//go:noescape
func l1Block64AVX512(a, b *float32) float64

// l1Tail4AVX returns sₖ + Σᵢ |aᵢ − bₖᵢ| over n ≥ 1 elements.
//
//go:noescape
func l1Tail4AVX(a, b0, b1, b2, b3 *float32, n int, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64)

// l1RowsAVX512 writes dst[j] = min(Σₖ |aₖ − bt[k·stride+j]|, limit) for
// j < n (n ≥ 1), eight columns to a ZMM register of float64 lane sums, each
// lane accumulated in index order from +0.
//
//go:noescape
func l1RowsAVX512(a *float32, dim int, bt *float32, stride int, dst *float64, n int, limit float64)

func init() {
	if detectAVX() {
		l1Tail4 = l1Tail4AVX
	}
	if detectAVX512F() {
		l1Block64 = l1Block64AVX512
		l1Rows = l1RowsAVX512
	}
}

func detectAVX() bool {
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&(osxsave|avx) != osxsave|avx {
		return false
	}
	lo, _ := xgetbv()
	return lo&0x6 == 0x6 // XCR0: SSE and YMM state
}

func detectAVX512F() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	// XCR0 must enable SSE, AVX, and the three AVX-512 state components
	// (opmask, ZMM hi256, hi16 ZMM) or the kernel will fault on ZMM use.
	lo, _ := xgetbv()
	const zmmState = 0xE6
	if lo&zmmState != zmmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16 // EBX
	return b7&avx512f != 0
}
