package sketch

import (
	"math/rand"
	"testing"
)

// randSketch fills words from the rng.
func randSketch(wps int, rng *rand.Rand) Sketch {
	s := make(Sketch, wps)
	for i := range s {
		s[i] = rng.Uint64()
	}
	return s
}

// buildArena packs count random sketches of wps words into one flat slice
// and also returns them as individually allocated sketches (the pre-arena
// slice-of-slices layout) for cross-checking.
func buildArena(count, wps int, rng *rand.Rand) ([]uint64, []Sketch) {
	arena := make([]uint64, count*wps)
	sks := make([]Sketch, count)
	for i := 0; i < count; i++ {
		sks[i] = randSketch(wps, rng)
		copy(arena[i*wps:], sks[i])
	}
	return arena, sks
}

func TestHammingAtMatchesHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, wps := range []int{1, 2, 3, 4, 10, 13} {
		arena, sks := buildArena(64, wps, rng)
		q := randSketch(wps, rng)
		for i, sk := range sks {
			want := Hamming(q, sk)
			if got := HammingAt(q, arena, i*wps); got != want {
				t.Fatalf("wps=%d row=%d: HammingAt=%d Hamming=%d", wps, i, got, want)
			}
		}
	}
}

func TestHammingSelectMatchesThresholdScan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, wps := range []int{1, 2, 3, 4, 7, 10} {
		// Odd counts exercise the unrolled kernels' remainder rows.
		for _, count := range []int{0, 1, 2, 5, 63, 64} {
			arena, sks := buildArena(count, wps, rng)
			q := randSketch(wps, rng)
			maxH := int32(64 * wps)
			for _, bound := range []int32{-1, 0, maxH / 3, maxH / 2, maxH} {
				idx := make([]int32, count)
				dist := make([]int32, count)
				n := HammingSelect(q, arena, 0, count, bound, idx, dist)
				k := 0
				for i, sk := range sks {
					h := Hamming(q, sk)
					if int32(h) > bound {
						continue
					}
					if k >= n {
						t.Fatalf("wps=%d count=%d bound=%d: kernel returned %d hits, row %d missing", wps, count, bound, n, i)
					}
					if idx[k] != int32(i) || dist[k] != int32(h) {
						t.Fatalf("wps=%d count=%d bound=%d hit %d: got (row %d, h %d), want (row %d, h %d)",
							wps, count, bound, k, idx[k], dist[k], i, h)
					}
					k++
				}
				if k != n {
					t.Fatalf("wps=%d count=%d bound=%d: kernel returned %d hits, scan found %d", wps, count, bound, n, k)
				}
			}
		}
	}
}

func TestHammingSelectOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const wps, count = 2, 40
	arena, sks := buildArena(count, wps, rng)
	q := randSketch(wps, rng)
	idx := make([]int32, count)
	dist := make([]int32, count)
	n := HammingSelect(q, arena, 8*wps, count-8, int32(64*wps), idx, dist)
	if n != count-8 {
		t.Fatalf("unbounded select returned %d of %d rows", n, count-8)
	}
	for k := 0; k < n; k++ {
		if want := Hamming(q, sks[8+int(idx[k])]); int(dist[k]) != want {
			t.Fatalf("hit %d (row %d): got %d want %d", k, idx[k], dist[k], want)
		}
	}
}

func TestEstimateL1K1FastPath(t *testing.T) {
	// The K=1 closed form must agree with the generic inversion.
	min := []float32{0, 0}
	max := []float32{1, 1}
	b, err := NewBuilder(Params{N: 128, K: 1, Min: min, Max: max, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h <= 128; h++ {
		frac := float64(h) / 128
		if frac >= 0.5 {
			frac = 0.5 - 1e-9
		}
		want := frac * b.Scale()
		if got := b.EstimateL1(h); got != want {
			t.Fatalf("h=%d: got %g want %g", h, got, want)
		}
	}
}

// The microbenchmark streams a 64k-segment arena through the row-at-a-time
// kernel.

const (
	benchSketches = 1 << 16 // 64k segments
	benchWords    = 10      // 600-bit sketches (the TIMIT audio size)
)

var benchSink int

func BenchmarkHammingArenaScan(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	arena, _ := buildArena(benchSketches, benchWords, rng)
	q := randSketch(benchWords, rng)
	b.SetBytes(int64(benchSketches * benchWords * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := 0
		for row := 0; row < benchSketches; row++ {
			h += HammingAt(q, arena, row*benchWords)
		}
		benchSink = h
	}
}
