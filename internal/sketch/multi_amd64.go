package sketch

// AVX-512 fused multi-query select. The scalar select kernel is
// compute-bound (~2.5 cycles per word on current hardware, flat across
// working-set sizes), so amortizing row loads alone does not speed up a
// multi-sketch sweep. The vector kernel removes the compute wall: one masked
// 512-bit load per row chunk, then per query a VPXORQ+VPOPCNTQ pair and a
// horizontal sum — roughly 5× fewer instructions per (query, row) pair than
// the scalar loop. Requires AVX-512F plus the VPOPCNTDQ extension and OS
// support for ZMM state, detected at startup.

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask.
func xgetbv() (eax, edx uint32)

// hammingSelectMulti1 scores rows of wps ≤ 8 words (one masked 512-bit chunk
// per row) against nq queries packed with an 8-word stride.
//
//go:noescape
func hammingSelectMulti1(q *uint64, nq int, w *uint64, rows, wps int, mask uint64, bounds, idx, dist *int32, stride int, ns *int32)

// hammingSelectMulti2 scores rows of 9–16 words (a full chunk plus a masked
// tail chunk) against nq queries packed with a 16-word stride.
//
//go:noescape
func hammingSelectMulti2(q *uint64, nq int, w *uint64, rows, wps int, mask uint64, bounds, idx, dist *int32, stride int, ns *int32)

func init() {
	if detectAVX512() {
		selectMultiASM = selectMultiAVX512
	}
}

func detectAVX512() bool {
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
	_, b7, c7, _ := cpuid(7, 0)
	const avx512f = 1 << 16   // EBX
	const vpopcntdq = 1 << 14 // ECX
	return b7&avx512f != 0 && c7&vpopcntdq != 0
}

func selectMultiAVX512(m *MultiSketch, arena []uint64, off, count int, bounds, idx, dist []int32, stride int, ns []int32) {
	w := arena[off : off+count*m.wps]
	if m.wps <= 8 {
		mask := uint64(1)<<m.wps - 1
		hammingSelectMulti1(&m.words[0], m.nq, &w[0], count, m.wps, mask,
			&bounds[0], &idx[0], &dist[0], stride, &ns[0])
		return
	}
	mask := uint64(1)<<(m.wps-8) - 1
	hammingSelectMulti2(&m.words[0], m.nq, &w[0], count, m.wps, mask,
		&bounds[0], &idx[0], &dist[0], stride, &ns[0])
}
