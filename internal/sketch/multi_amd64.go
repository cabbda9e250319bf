package sketch

// AVX-512 fused multi-query select. The scalar select kernel is
// compute-bound (~2.5 cycles per word on current hardware, flat across
// working-set sizes), so amortizing row loads alone does not speed up a
// multi-sketch sweep. The vector kernel removes the compute wall: one masked
// 512-bit load per row chunk, then per query a VPXORQ+VPOPCNTQ pair and a
// horizontal sum — roughly 5× fewer instructions per (query, row) pair than
// the scalar loop. A 1- or 2-word row would fill only a quarter of the
// chunk, so those widths get row-parallel kernels instead: eight rows per
// chunk, scored against each query side by side with no horizontal sum, hits
// compressed out under a compare mask (AVX-512VL). Requires AVX-512F plus the
// VPOPCNTDQ extension and OS support for ZMM state, detected at startup.

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

// hammingSelectRows1 and hammingSelectRows2 are HammingSelectMulti's kernels
// for 1- and 2-word sketches: eight rows per chunk, scored against each
// query side by side (one XOR+popcount per query and word), compared with
// the query's bound, and the hits compressed into idx/dist in ascending row
// order. Queries are packed with an 8-word stride.
//
//go:noescape
func hammingSelectRows1(q *uint64, nq int, w *uint64, rows int, bounds, idx, dist *int32, stride int, ns *int32)

//go:noescape
func hammingSelectRows2(q *uint64, nq int, w *uint64, rows int, bounds, idx, dist *int32, stride int, ns *int32)

// hammingCrossMin1 and hammingCrossMin2 are HammingCrossMin's kernels for
// 1- and 2-word sketches: the candidate's rows are loaded eight at a time,
// then per query one XOR+popcount (two for 2-word rows), a VPMINUQ into the
// column minima and a horizontal min into rowMin[q]. Queries are packed with
// an 8-word stride; rowMin must arrive filled with math.MaxInt32.
//
//go:noescape
func hammingCrossMin1(q *uint64, nq int, w *uint64, n int, rowMin, colMin *int32)

//go:noescape
func hammingCrossMin2(q *uint64, nq int, w *uint64, n int, rowMin, colMin *int32)

func init() {
	if detectAVX512() {
		selectMultiASM = selectMultiAVX512
		if detectAVX512VL() {
			selectRowsASM = selectRowsAVX512
			crossMinASM = crossMinAVX512
		}
	}
}

// detectAVX512VL reports the AVX-512 vector-length extension, which the
// row-select kernels' YMM compare and compress and the cross-min kernels'
// YMM and XMM minimum steps use; call it only after detectAVX512.
func detectAVX512VL() bool {
	_, b7, _, _ := cpuid(7, 0)
	const avx512vl = 1 << 31 // EBX
	return b7&avx512vl != 0
}

func selectRowsAVX512(m *MultiSketch, w []uint64, count int, bounds, idx, dist []int32, stride int, ns []int32) {
	if m.wps == 1 {
		hammingSelectRows1(&m.words[0], m.nq, &w[0], count, &bounds[0], &idx[0], &dist[0], stride, &ns[0])
		return
	}
	hammingSelectRows2(&m.words[0], m.nq, &w[0], count, &bounds[0], &idx[0], &dist[0], stride, &ns[0])
}

func crossMinAVX512(m *MultiSketch, w []uint64, n int, rowMin, colMin []int32) {
	if m.wps == 1 {
		hammingCrossMin1(&m.words[0], m.nq, &w[0], n, &rowMin[0], &colMin[0])
		return
	}
	hammingCrossMin2(&m.words[0], m.nq, &w[0], n, &rowMin[0], &colMin[0])
}

// detectAVX512 reports AVX-512F with the VPOPCNTDQ extension, which the
// select and cross-min kernels use.
func detectAVX512() bool {
	if !detectAVX512F() {
		return false
	}
	_, _, c7, _ := cpuid(7, 0)
	const vpopcntdq = 1 << 14 // ECX
	return c7&vpopcntdq != 0
}

// detectAVX512F reports AVX-512 Foundation and OS support for ZMM state:
// all the build kernel needs.
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
