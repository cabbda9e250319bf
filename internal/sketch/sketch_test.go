package sketch

import (
	"math"
	"math/rand"
	"testing"

	"ferret/internal/vector"
)

func params(n, k, d int) Params {
	min := make([]float32, d)
	max := make([]float32, d)
	for i := range max {
		max[i] = 1
	}
	return Params{N: n, K: k, Min: min, Max: max, Seed: 42}
}

func TestNewBuilderValidation(t *testing.T) {
	cases := []Params{
		{N: 0, Min: []float32{0}, Max: []float32{1}},
		{N: 8, Min: nil, Max: nil},
		{N: 8, Min: []float32{0, 0}, Max: []float32{1}},
		{N: 8, Min: []float32{1}, Max: []float32{0}},
		{N: 8, Min: []float32{0}, Max: []float32{1}, W: []float32{-1}},
		{N: 8, Min: []float32{0}, Max: []float32{0}}, // zero range everywhere
	}
	for i, p := range cases {
		if _, err := NewBuilder(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := params(128, 2, 10)
	b1, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewBuilder(p)
	v := []float32{0.1, 0.9, 0.3, 0.5, 0.7, 0.2, 0.8, 0.4, 0.6, 0.05}
	s1, s2 := b1.Build(v), b2.Build(v)
	if Hamming(s1, s2) != 0 {
		t.Fatal("same seed produced different sketches")
	}
	p.Seed = 43
	b3, _ := NewBuilder(p)
	if Hamming(s1, b3.Build(v)) == 0 {
		t.Fatal("different seeds produced identical sketches (suspicious)")
	}
}

func TestIdenticalVectorsZeroHamming(t *testing.T) {
	b, _ := NewBuilder(params(256, 3, 8))
	v := []float32{0.2, 0.4, 0.6, 0.8, 0.1, 0.3, 0.5, 0.7}
	if h := Hamming(b.Build(v), b.Build(v)); h != 0 {
		t.Fatalf("Hamming of identical vectors = %d", h)
	}
}

func TestHammingMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Hamming(make(Sketch, 1), make(Sketch, 2))
}

func TestWords(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {64, 1}, {65, 2}, {128, 2}, {600, 10}} {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestHammingEstimatesL1 is the core estimator property (paper §4.1.1):
// for K=1 the expected fraction of differing bits equals the normalized ℓ₁
// distance, so over many random pairs the observed Hamming fraction must
// concentrate near it.
func TestHammingEstimatesL1(t *testing.T) {
	const d = 16
	b, err := NewBuilder(params(2048, 1, d))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := make([]float32, d)
		y := make([]float32, d)
		for i := 0; i < d; i++ {
			x[i] = rng.Float32()
			y[i] = rng.Float32()
		}
		q := b.FlipProbability(x, y)
		wantFrac := b.ExpectedHammingFraction(q)
		got := float64(Hamming(b.Build(x), b.Build(y))) / float64(b.N())
		// With 2048 bits, a ~4σ band around the binomial mean.
		sigma := math.Sqrt(wantFrac * (1 - wantFrac) / float64(b.N()))
		if math.Abs(got-wantFrac) > 4*sigma+0.01 {
			t.Errorf("trial %d: hamming fraction %.4f, expected %.4f (q=%.4f)", trial, got, wantFrac, q)
		}
		// And q itself must match the normalized ℓ₁ distance.
		l1 := vector.L1(x, y)
		if math.Abs(q-l1/b.Scale()) > 1e-9 {
			t.Errorf("FlipProbability %.6f != L1/scale %.6f", q, l1/b.Scale())
		}
	}
}

// TestEstimateL1Inverts: EstimateL1(expected hamming) recovers the ℓ₁
// distance for moderate distances, for several K values.
func TestEstimateL1Inverts(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		b, err := NewBuilder(params(512, k, 8))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0.01, 0.05, 0.1, 0.2} {
			frac := b.ExpectedHammingFraction(q)
			h := int(math.Round(frac * float64(b.N())))
			est := b.EstimateL1(h)
			want := q * b.Scale()
			if math.Abs(est-want) > 0.05*b.Scale() {
				t.Errorf("K=%d q=%.2f: estimate %.4f, want %.4f", k, q, est, want)
			}
		}
	}
}

// TestDampening: for fixed raw flip probability, larger K pushes the
// expected fraction closer to 1/2 faster, i.e. large distances are dampened
// (monotone in K for q < 1/2).
func TestDampening(t *testing.T) {
	b1, _ := NewBuilder(params(64, 1, 4))
	b2, _ := NewBuilder(params(64, 2, 4))
	b4, _ := NewBuilder(params(64, 4, 4))
	q := 0.3
	f1, f2, f4 := b1.ExpectedHammingFraction(q), b2.ExpectedHammingFraction(q), b4.ExpectedHammingFraction(q)
	if !(f1 < f2 && f2 < f4 && f4 < 0.5) {
		t.Errorf("dampening not monotone: %g %g %g", f1, f2, f4)
	}
	// Small distances stay roughly proportional: f ≈ K·q for small q.
	qs := 0.005
	if f := b4.ExpectedHammingFraction(qs); math.Abs(f-4*qs) > 0.001 {
		t.Errorf("small-distance linearity broken: %g vs %g", f, 4*qs)
	}
}

// TestSketchOrderingPreserved: closer vectors should get smaller Hamming
// distances on average — the property filtering relies on.
func TestSketchOrderingPreserved(t *testing.T) {
	const d = 14
	b, _ := NewBuilder(params(1024, 1, d))
	rng := rand.New(rand.NewSource(99))
	base := make([]float32, d)
	for i := range base {
		base[i] = rng.Float32()
	}
	near := append([]float32(nil), base...)
	far := append([]float32(nil), base...)
	for i := range near {
		near[i] = clamp(near[i]+float32(rng.NormFloat64()*0.02), 0, 1)
		far[i] = clamp(far[i]+float32(rng.NormFloat64()*0.3), 0, 1)
	}
	sb, sn, sf := b.Build(base), b.Build(near), b.Build(far)
	if hn, hf := Hamming(sb, sn), Hamming(sb, sf); hn >= hf {
		t.Errorf("near Hamming %d >= far Hamming %d", hn, hf)
	}
}

func TestWeightedDimensions(t *testing.T) {
	// Weight dimension 0 at zero: differences there must not affect sketches.
	p := params(512, 1, 2)
	p.W = []float32{0, 1}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	a := []float32{0.0, 0.5}
	c := []float32{1.0, 0.5}
	if h := Hamming(b.Build(a), b.Build(c)); h != 0 {
		t.Errorf("zero-weight dimension leaked into sketch: hamming %d", h)
	}
}

func TestBuilderMarshalRoundTrip(t *testing.T) {
	p := params(96, 3, 14)
	p.W = make([]float32, 14)
	for i := range p.W {
		p.W[i] = float32(i + 1)
	}
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b2 Builder
	if err := b2.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if b2.N() != b.N() || b2.K() != b.K() || b2.Dim() != b.Dim() || b2.Scale() != b.Scale() {
		t.Fatal("round-tripped builder metadata differs")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		v := make([]float32, 14)
		for i := range v {
			v[i] = rng.Float32()
		}
		if Hamming(b.Build(v), b2.Build(v)) != 0 {
			t.Fatal("round-tripped builder produces different sketches")
		}
	}
}

func TestBuilderUnmarshalRejectsGarbage(t *testing.T) {
	var b Builder
	if err := b.UnmarshalBinary(nil); err == nil {
		t.Error("nil accepted")
	}
	if err := b.UnmarshalBinary(make([]byte, 40)); err == nil {
		t.Error("zero magic accepted")
	}
	good, _ := NewBuilder(params(16, 1, 2))
	enc, _ := good.MarshalBinary()
	if err := b.UnmarshalBinary(enc[:len(enc)-4]); err == nil {
		t.Error("truncated accepted")
	}
}

func TestBuildDimensionPanics(t *testing.T) {
	b, _ := NewBuilder(params(16, 1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Build([]float32{1, 2})
}

func BenchmarkHamming600Bit(b *testing.B) {
	bl, _ := NewBuilder(params(600, 2, 192))
	v1 := make([]float32, 192)
	v2 := make([]float32, 192)
	for i := range v1 {
		v1[i] = float32(i) / 192
		v2[i] = float32(191-i) / 192
	}
	s1, s2 := bl.Build(v1), bl.Build(v2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hamming(s1, s2)
	}
}
