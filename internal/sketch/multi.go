package sketch

import (
	"math"
	"math/bits"
)

// Multi-sketch kernels. The engine's filter sweeps an arena once for all r
// filtering segments of one query: each packed row is loaded from memory a
// single time and scored against the Q = r query sketches, so the memory
// traffic per sketch drops from rows·wps·8 bytes to (rows·wps·8)/Q. On hosts
// where the scalar scan is compute-bound rather than bandwidth-bound the win
// instead comes from the vectorized fused-select kernel installed by the
// amd64 init (see multi_amd64.go), which keeps the whole row in vector
// registers while it scores every sketch.

// chunkWords rounds a word-per-sketch count up to a whole 8-word (512-bit)
// SIMD chunk.
func chunkWords(wps int) int { return (wps + 7) &^ 7 }

// MultiSketch packs Q equal-length query sketches into one flat buffer for
// the multi-query kernels. Each query occupies chunkWords(wps) words; the
// padding words are zero, so vector kernels can load full chunks from the
// query side without masking (zero XOR masked-zero row lanes contribute no
// popcount). Reset reuses the buffer across calls; the zero value is ready
// to use.
type MultiSketch struct {
	words []uint64
	nq    int
	wps   int
	pad   int // words per packed query, a multiple of 8
}

// Reset packs the given query sketches, which must all have the same word
// length, replacing the previous contents.
func (m *MultiSketch) Reset(qs []Sketch) {
	if len(qs) == 0 {
		m.nq, m.wps, m.pad = 0, 0, 0
		return
	}
	wps := len(qs[0])
	pad := chunkWords(wps)
	need := len(qs) * pad
	if cap(m.words) < need {
		m.words = make([]uint64, need)
	}
	m.words = m.words[:need]
	clear(m.words)
	for i, q := range qs {
		if len(q) != wps {
			panic("sketch: MultiSketch queries have mixed lengths")
		}
		copy(m.words[i*pad:], q)
	}
	m.nq, m.wps, m.pad = len(qs), wps, pad
}

// Len returns the number of packed queries.
func (m *MultiSketch) Len() int { return m.nq }

// query returns the unpadded view of packed query i.
func (m *MultiSketch) query(i int) Sketch {
	off := i * m.pad
	return Sketch(m.words[off : off+m.wps])
}

// selectMultiASM, when non-nil, is a platform-specific vectorized
// implementation of the fused multi-query select. It is installed by init in
// multi_amd64.go when the CPU supports it and must produce output identical
// to the portable loop below (same hits, same ascending row order).
//
//ferret:noalloc
var selectMultiASM func(m *MultiSketch, arena []uint64, off, count int, bounds, idx, dist []int32, stride int, ns []int32)

// selectRowsASM, when non-nil, is a platform-specific vectorized fused
// select for 1- and 2-word sketches that scores several rows per query at
// once, installed by init in multi_amd64.go when the CPU supports it. It
// serves any query count, one included, and must produce output identical
// to the portable loops (same hits, same ascending row order); ns arrives
// zeroed and w holds exactly count rows.
//
//ferret:noalloc
var selectRowsASM func(m *MultiSketch, w []uint64, count int, bounds, idx, dist []int32, stride int, ns []int32)

// HammingSelectMulti is the arena sweep's fused kernel: for each packed
// query q it scores count consecutive sketches starting at word offset off
// and records the rows with distance at or under bounds[q] — block-relative
// row index into idx[q*stride+n], distance into dist[q*stride+n] — setting
// ns[q] to the hit count. A negative bound selects nothing. Hits appear in
// ascending row order, exactly as Q independent HammingSelect calls would
// produce, so a consumer cannot tell one fused sweep from Q separate ones. idx and dist must hold len(bounds)*stride values and stride must be
// at least count.
//
//ferret:noalloc
func HammingSelectMulti(m *MultiSketch, arena []uint64, off, count int, bounds, idx, dist []int32, stride int, ns []int32) {
	if len(bounds) != m.nq || len(ns) != m.nq {
		panic("sketch: HammingSelectMulti bounds/ns length mismatch")
	}
	for q := range ns {
		ns[q] = 0
	}
	if count == 0 || m.nq == 0 {
		return
	}
	if stride < count {
		panic("sketch: HammingSelectMulti stride shorter than block")
	}
	if selectRowsASM != nil && m.wps <= 2 {
		selectRowsASM(m, arena[off:off+count*m.wps], count, bounds, idx, dist, stride, ns)
		return
	}
	if m.nq == 1 {
		ns[0] = int32(HammingSelect(m.query(0), arena, off, count, bounds[0], idx[:stride], dist[:stride]))
		return
	}
	if selectMultiASM != nil && m.wps <= 16 {
		selectMultiASM(m, arena, off, count, bounds, idx, dist, stride, ns)
		return
	}
	hammingSelectMultiGeneric(m, arena, off, count, bounds, idx, dist, stride, ns)
}

// hammingSelectMultiGeneric is the portable fused select: rows outer, queries
// inner, so each row is loaded once per block regardless of Q.
//
//ferret:noalloc
func hammingSelectMultiGeneric(m *MultiSketch, arena []uint64, off, count int, bounds, idx, dist []int32, stride int, ns []int32) {
	wps := m.wps
	w := arena[off : off+count*wps]
	switch wps {
	case 2:
		for i := 0; i < count; i++ {
			w0, w1 := w[2*i], w[2*i+1]
			for q := 0; q < m.nq; q++ {
				j := q * m.pad
				h := int32(bits.OnesCount64(m.words[j]^w0) + bits.OnesCount64(m.words[j+1]^w1))
				if h <= bounds[q] {
					slot := q*stride + int(ns[q])
					idx[slot], dist[slot] = int32(i), h
					ns[q]++
				}
			}
		}
	default:
		for i := 0; i < count; i++ {
			row := w[i*wps : i*wps+wps]
			for q := 0; q < m.nq; q++ {
				qw := m.words[q*m.pad : q*m.pad+wps]
				var h int32
				for k, x := range qw {
					h += int32(bits.OnesCount64(x ^ row[k]))
				}
				if h <= bounds[q] {
					slot := q*stride + int(ns[q])
					idx[slot], dist[slot] = int32(i), h
					ns[q]++
				}
			}
		}
	}
}

// crossMinASM, when non-nil, is a platform-specific vectorized
// HammingCrossMin for 1- and 2-word sketches, installed by init in
// multi_amd64.go when the CPU supports it. It must produce output identical
// to hammingCrossMinGeneric; rowMin arrives filled with math.MaxInt32.
//
//ferret:noalloc
var crossMinASM func(m *MultiSketch, w []uint64, n int, rowMin, colMin []int32)

// HammingCrossMin scores one candidate's n consecutive sketches, packed from
// word offset off, against every packed query and keeps only the two sets of
// minima the rank stage's lower bound needs: rowMin[q] is query q's nearest
// candidate sketch, colMin[j] candidate sketch j's nearest query, both as
// Hamming distances. rowMin must hold m.Len() values and colMin n; with
// n = 0 every rowMin is math.MaxInt32.
//
//ferret:noalloc
func HammingCrossMin(m *MultiSketch, arena []uint64, off, n int, rowMin, colMin []int32) {
	rowMin, colMin = rowMin[:m.nq], colMin[:n]
	w := arena[off : off+n*m.wps]
	for q := range rowMin {
		rowMin[q] = math.MaxInt32
	}
	if n == 0 || m.nq == 0 {
		return
	}
	if crossMinASM != nil && m.wps <= 2 {
		crossMinASM(m, w, n, rowMin, colMin)
		return
	}
	hammingCrossMinGeneric(m, w, n, rowMin, colMin)
}

// hammingCrossMinGeneric is the portable HammingCrossMin: queries outer,
// candidate sketches inner, integer minima only.
//
//ferret:noalloc
func hammingCrossMinGeneric(m *MultiSketch, w []uint64, n int, rowMin, colMin []int32) {
	for j := range colMin {
		colMin[j] = math.MaxInt32
	}
	wps := m.wps
	for q := range rowMin {
		qw := m.words[q*m.pad : q*m.pad+wps]
		rm := rowMin[q]
		for j := range colMin {
			var h int32
			if wps == 2 {
				h = int32(bits.OnesCount64(qw[0]^w[2*j]) + bits.OnesCount64(qw[1]^w[2*j+1]))
			} else {
				for k, x := range w[j*wps : j*wps+wps] {
					h += int32(bits.OnesCount64(qw[k] ^ x))
				}
			}
			rm = min(rm, h)
			colMin[j] = min(colMin[j], h)
		}
		rowMin[q] = rm
	}
}
