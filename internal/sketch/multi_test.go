package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randomRows(rng *rand.Rand, rows, wps int) []uint64 {
	w := make([]uint64, rows*wps)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

func randomQueries(rng *rand.Rand, nq, wps int) []Sketch {
	qs := make([]Sketch, nq)
	for i := range qs {
		qs[i] = make(Sketch, wps)
		for k := range qs[i] {
			qs[i][k] = rng.Uint64()
		}
	}
	return qs
}

func TestHammingMultiAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, wps := range []int{1, 2, 4, 10, 13, 17} {
		arena := randomRows(rng, 20, wps)
		for _, nq := range []int{1, 2, 5} {
			qs := randomQueries(rng, nq, wps)
			var m MultiSketch
			m.Reset(qs)
			dst := make([]int32, nq)
			for row := 0; row < 20; row++ {
				HammingMultiAt(&m, arena, row*wps, dst)
				for q := 0; q < nq; q++ {
					want := HammingAt(qs[q], arena, row*wps)
					if int(dst[q]) != want {
						t.Fatalf("wps=%d nq=%d row=%d q=%d: got %d want %d", wps, nq, row, q, dst[q], want)
					}
				}
			}
		}
	}
}

func TestHammingMultiBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, wps := range []int{1, 2, 4, 13, 17} {
		for _, nq := range []int{1, 2, 7} {
			for _, count := range []int{0, 1, 33} {
				arena := randomRows(rng, count+3, wps)
				off := 2 * wps
				qs := randomQueries(rng, nq, wps)
				var m MultiSketch
				m.Reset(qs)
				dst := make([]int32, nq*count)
				HammingMultiBatch(&m, arena, off, count, dst)
				want := make([]int32, count)
				for q := 0; q < nq; q++ {
					HammingBatch(qs[q], arena, off, count, want)
					for i := 0; i < count; i++ {
						if dst[q*count+i] != want[i] {
							t.Fatalf("wps=%d nq=%d count=%d q=%d i=%d: got %d want %d",
								wps, nq, count, q, i, dst[q*count+i], want[i])
						}
					}
				}
			}
		}
	}
}

// checkSelectMulti compares HammingSelectMulti against nq independent
// HammingSelect calls: identical hit counts, rows, and distances.
func checkSelectMulti(t *testing.T, rng *rand.Rand, wps, nq, count int) {
	t.Helper()
	arena := randomRows(rng, count+2, wps)
	off := wps // skip one row so off ≠ 0 is exercised
	qs := randomQueries(rng, nq, wps)
	var m MultiSketch
	m.Reset(qs)

	bounds := make([]int32, nq)
	for q := range bounds {
		// Mix no-hit (-1), sparse, and all-hit bounds.
		bounds[q] = int32(rng.Intn(wps*64+2)) - 1
	}
	stride := count + 1
	if count == 0 {
		stride = 1
	}
	idx := make([]int32, nq*stride)
	dist := make([]int32, nq*stride)
	ns := make([]int32, nq)
	HammingSelectMulti(&m, arena, off, count, bounds, idx, dist, stride, ns)

	wantIdx := make([]int32, stride)
	wantDist := make([]int32, stride)
	for q := 0; q < nq; q++ {
		wantN := HammingSelect(qs[q], arena, off, count, bounds[q], wantIdx, wantDist)
		if int(ns[q]) != wantN {
			t.Fatalf("wps=%d nq=%d count=%d q=%d bound=%d: %d hits, want %d",
				wps, nq, count, q, bounds[q], ns[q], wantN)
		}
		for k := 0; k < wantN; k++ {
			if idx[q*stride+k] != wantIdx[k] || dist[q*stride+k] != wantDist[k] {
				t.Fatalf("wps=%d nq=%d count=%d q=%d hit %d: got (%d,%d) want (%d,%d)",
					wps, nq, count, q, k, idx[q*stride+k], dist[q*stride+k], wantIdx[k], wantDist[k])
			}
		}
	}
}

func TestHammingSelectMulti(t *testing.T) {
	impls := []struct {
		name string
		asm  func(*MultiSketch, []uint64, int, int, []int32, []int32, []int32, int, []int32)
	}{{"scalar", nil}}
	if selectMultiASM != nil {
		impls = append(impls, struct {
			name string
			asm  func(*MultiSketch, []uint64, int, int, []int32, []int32, []int32, int, []int32)
		}{"avx512", selectMultiASM})
	}
	saved := selectMultiASM
	defer func() { selectMultiASM = saved }()

	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			selectMultiASM = impl.asm
			rng := rand.New(rand.NewSource(3))
			for _, wps := range []int{1, 2, 3, 7, 8, 9, 13, 16, 17} {
				for _, nq := range []int{1, 2, 3, 8} {
					for _, count := range []int{0, 1, 5, 257} {
						checkSelectMulti(t, rng, wps, nq, count)
					}
				}
			}
			// Many randomized shapes for the hit-slot bookkeeping.
			for i := 0; i < 200; i++ {
				checkSelectMulti(t, rng, 1+rng.Intn(17), 1+rng.Intn(9), rng.Intn(64))
			}
		})
	}
}

func TestMultiSketchReset(t *testing.T) {
	var m MultiSketch
	m.Reset(nil)
	if m.Len() != 0 {
		t.Fatalf("empty reset: Len=%d", m.Len())
	}
	rng := rand.New(rand.NewSource(4))
	qs := randomQueries(rng, 3, 13)
	m.Reset(qs)
	if m.Len() != 3 || m.Wps() != 13 || m.pad != 16 {
		t.Fatalf("Len=%d Wps=%d pad=%d", m.Len(), m.Wps(), m.pad)
	}
	for q := 0; q < 3; q++ {
		for k := 13; k < 16; k++ {
			if m.words[q*16+k] != 0 {
				t.Fatalf("pad word q=%d k=%d not zero", q, k)
			}
		}
	}
	// Reuse with fewer, shorter queries must re-zero padding.
	m.Reset(randomQueries(rng, 2, 2))
	if m.Len() != 2 || m.Wps() != 2 || m.pad != 8 {
		t.Fatalf("after reuse: Len=%d Wps=%d pad=%d", m.Len(), m.Wps(), m.pad)
	}
	for q := 0; q < 2; q++ {
		for k := 2; k < 8; k++ {
			if m.words[q*8+k] != 0 {
				t.Fatalf("stale pad word q=%d k=%d", q, k)
			}
		}
	}
}

// The multi-query benchmarks fix wps=13 (the 800-bit mixed-shape sketch) and
// compare one shared pass over the arena against Q independent serial scans.
// SetBytes reports arena bytes actually loaded per scan, so the B/s column
// shows the memory-traffic advantage of the shared pass directly.
const benchSelectBound = 340 // ~selective: well under the 416-bit mean

func benchRows(b *testing.B, rows, wps, nq int) ([]uint64, []Sketch) {
	rng := rand.New(rand.NewSource(5))
	return randomRows(rng, rows, wps), randomQueries(rng, nq, wps)
}

func BenchmarkHammingSelectMulti(b *testing.B) {
	const rows, wps = 4096, 13
	for _, nq := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("q%d", nq), func(b *testing.B) {
			arena, qs := benchRows(b, rows, wps, nq)
			var m MultiSketch
			m.Reset(qs)
			bounds := make([]int32, nq)
			for q := range bounds {
				bounds[q] = benchSelectBound
			}
			idx := make([]int32, nq*rows)
			dist := make([]int32, nq*rows)
			ns := make([]int32, nq)
			b.SetBytes(int64(rows * wps * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				HammingSelectMulti(&m, arena, 0, rows, bounds, idx, dist, rows, ns)
			}
		})
	}
}

func BenchmarkHammingSelectSerial(b *testing.B) {
	const rows, wps = 4096, 13
	for _, nq := range []int{1, 8} {
		b.Run(fmt.Sprintf("q%d", nq), func(b *testing.B) {
			arena, qs := benchRows(b, rows, wps, nq)
			idx := make([]int32, rows)
			dist := make([]int32, rows)
			b.SetBytes(int64(nq * rows * wps * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for q := 0; q < nq; q++ {
					HammingSelect(qs[q], arena, 0, rows, benchSelectBound, idx, dist)
				}
			}
		})
	}
}

func BenchmarkHammingMultiBatch(b *testing.B) {
	const rows, wps, nq = 4096, 13, 8
	arena, qs := benchRows(b, rows, wps, nq)
	var m MultiSketch
	m.Reset(qs)
	dst := make([]int32, nq*rows)
	b.SetBytes(int64(rows * wps * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HammingMultiBatch(&m, arena, 0, rows, dst)
	}
}

// TestHammingCrossMin checks every HammingCrossMin implementation against
// per-pair HammingAt minima: widths 1–16 words, 1–20 candidate rows (so more
// than two 8-row chunks), 1–16 queries, at an offset that is not a whole
// number of rows into the arena.
func TestHammingCrossMin(t *testing.T) {
	impls := []struct {
		name string
		asm  func(*MultiSketch, []uint64, int, []int32, []int32)
	}{{"scalar", nil}}
	if crossMinASM != nil {
		impls = append(impls, struct {
			name string
			asm  func(*MultiSketch, []uint64, int, []int32, []int32)
		}{"avx512", crossMinASM})
	}
	saved := crossMinASM
	defer func() { crossMinASM = saved }()

	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			crossMinASM = impl.asm
			rng := rand.New(rand.NewSource(4))
			for wps := 1; wps <= 16; wps++ {
				for n := 1; n <= 20; n++ {
					for _, nq := range []int{1, 2, 3, 7, 8, 9, 16} {
						off := 3 + rng.Intn(5)
						arena := randomRows(rng, off+n*wps, 1) // ends at the last row
						qs := randomQueries(rng, nq, wps)
						if n > 2 {
							copy(qs[0], arena[off+wps:off+2*wps]) // a zero distance
						}
						var m MultiSketch
						m.Reset(qs)
						rowMin, colMin := make([]int32, nq), make([]int32, n)
						HammingCrossMin(&m, arena, off, n, rowMin, colMin)
						for q := 0; q < nq; q++ {
							want := int32(math.MaxInt32)
							for j := 0; j < n; j++ {
								want = min(want, int32(HammingAt(qs[q], arena, off+j*wps)))
							}
							if rowMin[q] != want {
								t.Fatalf("wps=%d n=%d nq=%d: rowMin[%d] = %d, want %d", wps, n, nq, q, rowMin[q], want)
							}
						}
						for j := 0; j < n; j++ {
							want := int32(math.MaxInt32)
							for q := 0; q < nq; q++ {
								want = min(want, int32(HammingAt(qs[q], arena, off+j*wps)))
							}
							if colMin[j] != want {
								t.Fatalf("wps=%d n=%d nq=%d: colMin[%d] = %d, want %d", wps, n, nq, j, colMin[j], want)
							}
						}
					}
				}
			}
		})
	}
}
