package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestL1(t *testing.T) {
	if got := L1([]float32{1, 2, 3}, []float32{4, 0, 3}); got != 5 {
		t.Errorf("L1 = %g, want 5", got)
	}
	if got := L1([]float32{}, []float32{}); got != 0 {
		t.Errorf("L1 of empty = %g, want 0", got)
	}
}

func TestL2(t *testing.T) {
	if got := L2([]float32{0, 0}, []float32{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("L2 = %g, want 5", got)
	}
}

func TestLpMatchesL1L2(t *testing.T) {
	a := []float32{1, -2, 3.5, 0}
	b := []float32{-1, 2, 0.5, 4}
	if got, want := Lp(1)(a, b), L1(a, b); !almostEqual(got, want, 1e-9) {
		t.Errorf("Lp(1) = %g, L1 = %g", got, want)
	}
	if got, want := Lp(2)(a, b), L2(a, b); !almostEqual(got, want, 1e-9) {
		t.Errorf("Lp(2) = %g, L2 = %g", got, want)
	}
}

func TestLpRejectsSubOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lp(0.5) did not panic")
		}
	}()
	Lp(0.5)
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	L1([]float32{1}, []float32{1, 2})
}

func TestPearson(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	if got := Pearson(a, a); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Pearson(a,a) = %g, want 0", got)
	}
	// Perfect negative correlation → distance 2.
	b := []float32{4, 3, 2, 1}
	if got := Pearson(a, b); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Pearson(a, reversed) = %g, want 2", got)
	}
	// Affine transform preserves correlation.
	c := []float32{3, 5, 7, 9}
	if got := Pearson(a, c); !almostEqual(got, 0, 1e-9) {
		t.Errorf("Pearson(a, 2a+1) = %g, want 0", got)
	}
	// Constant vector: distance 1 by convention.
	if got := Pearson(a, []float32{5, 5, 5, 5}); got != 1 {
		t.Errorf("Pearson(a, const) = %g, want 1", got)
	}
}

func TestSpearman(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	// Any monotone transform has ρ = 1.
	b := []float32{1, 4, 9, 16, 25}
	if got := Spearman(a, b); !almostEqual(got, 0, 1e-9) {
		t.Errorf("Spearman(a, a²) = %g, want 0", got)
	}
	rev := []float32{5, 4, 3, 2, 1}
	if got := Spearman(a, rev); !almostEqual(got, 2, 1e-9) {
		t.Errorf("Spearman(a, rev) = %g, want 2", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float32{10, 20, 20, 30})
	want := []float32{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

// randVecPair yields same-length random vectors for property tests.
func randVecPair(rng *rand.Rand) (a, b, c []float32) {
	n := rng.Intn(16) + 1
	a = make([]float32, n)
	b = make([]float32, n)
	c = make([]float32, n)
	for i := 0; i < n; i++ {
		a[i] = float32(rng.NormFloat64() * 10)
		b[i] = float32(rng.NormFloat64() * 10)
		c[i] = float32(rng.NormFloat64() * 10)
	}
	return
}

// TestMetricAxioms checks non-negativity, symmetry, identity and the
// triangle inequality for the ℓ_p family on random vectors.
func TestMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	funcs := map[string]Func{"L1": L1, "L2": L2, "Lp1.5": Lp(1.5)}
	for name, f := range funcs {
		for trial := 0; trial < 300; trial++ {
			a, b, c := randVecPair(rng)
			dab, dba := f(a, b), f(b, a)
			if dab < 0 {
				t.Fatalf("%s: negative distance", name)
			}
			if !almostEqual(dab, dba, 1e-9) {
				t.Fatalf("%s: asymmetric: %g vs %g", name, dab, dba)
			}
			if d := f(a, a); !almostEqual(d, 0, 1e-9) {
				t.Fatalf("%s: d(a,a) = %g", name, d)
			}
			if dac, dcb := f(a, c), f(c, b); dab > dac+dcb+1e-6*(1+dab) {
				t.Fatalf("%s: triangle violated: %g > %g + %g", name, dab, dac, dcb)
			}
		}
	}
}

// TestCorrelationDistanceRange: Pearson and Spearman distances stay in [0, 2].
func TestCorrelationDistanceRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, _ := randVecPair(rng)
		for _, d := range []float64{Pearson(a, b), Spearman(a, b)} {
			if d < 0 || d > 2 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestL1Capped: the capped kernel must equal min(L1, limit) bit for bit,
// across vector lengths that exercise the blocked early-exit check.
func TestL1Capped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 63, 64, 65, 130, 544} {
		for trial := 0; trial < 50; trial++ {
			a := make([]float32, n)
			b := make([]float32, n)
			for i := range a {
				a[i] = rng.Float32() * 10
				b[i] = rng.Float32() * 10
			}
			full := L1(a, b)
			for _, limit := range []float64{full * 0.01, full * 0.5, full, full * 2, 1e-9} {
				if limit <= 0 {
					continue
				}
				want := full
				if want > limit {
					want = limit
				}
				if got := L1Capped(a, b, limit); got != want {
					t.Fatalf("n=%d limit=%g: got %g want %g (full %g)", n, limit, got, want, full)
				}
			}
		}
	}
}

// TestL1ScalarTailBits: the branch-free tail must give the bits of the plain
// sign-branch loop it replaced, for every length below one block (where the
// tail is the whole sum) and for L1, L1Capped and the scalar block alike.
func TestL1ScalarTailBits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 20; trial++ {
			a := make([]float32, n)
			b := make([]float32, n)
			for i := range a {
				a[i] = (rng.Float32() - 0.5) * 4
				b[i] = (rng.Float32() - 0.5) * 4
			}
			if trial == 0 {
				copy(b, a) // all-zero differences, including −0
			}
			var want float64
			for i := range a {
				d := float64(a[i]) - float64(b[i])
				if d < 0 {
					d = -d
				}
				want += d
			}
			got := l1Scalar64
			if n < 64 {
				got = L1
				if c := L1Capped(a, b, math.Inf(1)); math.Float64bits(c) != math.Float64bits(want) {
					t.Fatalf("n=%d: L1Capped = %x, branch loop = %x", n, math.Float64bits(c), math.Float64bits(want))
				}
			}
			if g := got(a, b); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("n=%d: got %x, branch loop = %x", n, math.Float64bits(g), math.Float64bits(want))
			}
		}
	}
}

// TestL1BlockKernel: when a vectorized 64-element block kernel is active it
// must agree with the scalar block to within reassociation-level rounding,
// and L1 itself must match a plain scalar sum to the same tolerance across
// lengths that mix full blocks and tails.
func TestL1BlockKernel(t *testing.T) {
	if l1Block64 == nil {
		t.Skip("no vector kernel on this CPU; scalar path is the reference itself")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := make([]float32, 64)
		b := make([]float32, 64)
		for i := range a {
			a[i] = (rng.Float32() - 0.5) * 20
			b[i] = (rng.Float32() - 0.5) * 20
		}
		got := l1Block64(&a[0], &b[0])
		want := l1Scalar64(a, b)
		if !almostEqual(got, want, 1e-9*math.Max(1, want)) {
			t.Fatalf("trial %d: kernel %g, scalar %g", trial, got, want)
		}
	}
	for _, n := range []int{64, 65, 127, 128, 200, 544} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32() * 10
			b[i] = rng.Float32() * 10
		}
		var scalar float64
		for i := range a {
			scalar += math.Abs(float64(a[i]) - float64(b[i]))
		}
		if got := L1(a, b); !almostEqual(got, scalar, 1e-9*math.Max(1, scalar)) {
			t.Fatalf("n=%d: L1 %g, scalar %g", n, got, scalar)
		}
	}
}

// TestL1x4Bits: every lane of the four-vector row kernel must equal its own
// L1 call bit for bit (and L1Capped under a limit), for every length up to
// 600 — blocks and tails in every mix — with random, equal and
// large-magnitude operands, under the vector block and tail kernels (when
// the CPU has them) and the scalar ones.
func TestL1x4Bits(t *testing.T) {
	type kernels struct {
		name  string
		block func(a, b *float32) float64
		tail  func(a, b0, b1, b2, b3 *float32, n int, s0, s1, s2, s3 float64) (r0, r1, r2, r3 float64)
	}
	cases := []kernels{{name: "scalar"}, {"vector", l1Block64, l1Tail4}}
	defer func(k kernels) { l1Block64, l1Tail4 = k.block, k.tail }(cases[1])
	if l1Block64 == nil && l1Tail4 == nil {
		cases = cases[:1]
	}
	bits := math.Float64bits
	for _, c := range cases {
		name := c.name
		l1Block64, l1Tail4 = c.block, c.tail
		rng := rand.New(rand.NewSource(13))
		for n := 1; n <= 600; n++ {
			vecs := make([][]float32, 5)
			for v := range vecs {
				vecs[v] = make([]float32, n)
			}
			for i := 0; i < n; i++ {
				vecs[0][i] = (rng.Float32() - 0.5) * 4
				vecs[1][i] = (rng.Float32() - 0.5) * 4
				vecs[3][i] = (rng.Float32() - 0.5) * 3e38 // large magnitude: the float64 sum must not saturate differently
				vecs[4][i] = rng.Float32() * 1e-30
			}
			copy(vecs[2], vecs[0]) // equal operands: all-zero differences
			a, b := vecs[0], vecs[1:]
			full := L1(a, b[0])
			for _, limit := range []float64{math.Inf(1), full, full * 0.3, 1e-9} {
				s0, s1, s2, s3 := L1x4(a, b[0], b[1], b[2], b[3], limit)
				for lane, got := range []float64{s0, s1, s2, s3} {
					want := L1(a, b[lane])
					if !math.IsInf(limit, 1) {
						want = L1Capped(a, b[lane], limit)
					}
					if bits(got) != bits(want) {
						t.Fatalf("%s kernel, n=%d, limit %g, lane %d: L1x4 %x, one-vector call %x", name, n, limit, lane, bits(got), bits(want))
					}
				}
			}
		}
	}
}

// TestL1TransposedBits: every column of the transposed row kernel must equal
// L1x4's lane and L1Capped for the same pair bit for bit, for every
// dimension under 64 and 1–20 columns (so full, partial and paired 8-lane
// chunks), under +Inf and limits that cap some columns, with the AVX-512
// kernel (when the CPU has it) and the portable loop. One column carries a
// NaN, whose capped bits only L1x4 (Go's min) defines.
func TestL1TransposedBits(t *testing.T) {
	impls := []struct {
		name string
		rows func(a *float32, dim int, bt *float32, stride int, dst *float64, n int, limit float64)
	}{{"scalar", nil}, {"avx512", l1Rows}}
	if l1Rows == nil {
		impls = impls[:1]
	}
	saved := l1Rows
	defer func() { l1Rows = saved }()
	bits := math.Float64bits
	for _, impl := range impls {
		l1Rows = impl.rows
		rng := rand.New(rand.NewSource(17))
		for dim := 1; dim < 64; dim++ {
			for n := 1; n <= 20; n++ {
				a := make([]float32, dim)
				for k := range a {
					a[k] = (rng.Float32() - 0.5) * 4
				}
				cols := make([][]float32, n)
				for j := range cols {
					cols[j] = make([]float32, dim)
					for k := range cols[j] {
						switch j % 4 {
						case 0:
							copy(cols[j], a) // all-zero differences
						case 1:
							cols[j][k] = (rng.Float32() - 0.5) * 3e38
						default:
							cols[j][k] = (rng.Float32() - 0.5) * 4
						}
					}
				}
				const nanCol = 6 // a NaN feature: the cap must treat it as Go's min does
				if n > nanCol {
					cols[nanCol][dim/2] = float32(math.NaN())
				}
				stride := (n + 7) &^ 7
				bt := make([]float32, dim*stride)
				for k := range bt {
					bt[k] = float32(math.NaN()) // padding lanes are computed and discarded
				}
				for j, c := range cols {
					for k, x := range c {
						bt[k*stride+j] = x
					}
				}
				dst := make([]float64, n)
				for _, limit := range []float64{math.Inf(1), 0.5 * float64(dim), 1e-9} {
					L1Transposed(a, bt, stride, dst, limit)
					for j := range cols {
						quad := j &^ 3
						lanes := [4][]float32{}
						for l := range lanes {
							lanes[l] = cols[min(quad+l, n-1)]
						}
						s0, s1, s2, s3 := L1x4(a, lanes[0], lanes[1], lanes[2], lanes[3], limit)
						want := [4]float64{s0, s1, s2, s3}[j-quad]
						if capped := L1Capped(a, cols[j], limit); j != nanCol && bits(capped) != bits(want) {
							t.Fatalf("dim=%d: L1x4 %x and L1Capped %x disagree", dim, bits(want), bits(capped))
						}
						if bits(dst[j]) != bits(want) {
							t.Fatalf("%s kernel, dim=%d n=%d limit %g, column %d: %x, L1x4 %x", impl.name, dim, n, limit, j, bits(dst[j]), bits(want))
						}
					}
				}
			}
		}
	}
}

func BenchmarkL1(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float32, 544)
	y := make([]float32, 544)
	for i := range x {
		x[i] = rng.Float32()
		y[i] = rng.Float32()
	}
	b.SetBytes(int64(2 * 4 * len(x)))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += L1(x, y)
	}
	benchSink = sink
}

// BenchmarkL1_14d_RandomPairs times the small-d ground kernel the way the EMD
// cost fill meets it: every call sees a different pair out of 4096 distinct
// vectors, so the branch predictor cannot learn the sign pattern of one pair
// (a fixed-pair 14-d benchmark reads several times faster than the rank stage
// ever ran).
func BenchmarkL1_14d_RandomPairs(b *testing.B) {
	const pool, dim = 4096, 14
	rng := rand.New(rand.NewSource(4))
	vecs := make([][]float32, pool)
	for i := range vecs {
		vecs[i] = make([]float32, dim)
		for j := range vecs[i] {
			vecs[i][j] = rng.Float32()
		}
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += L1(vecs[i&(pool-1)], vecs[(i*2654435761>>12)&(pool-1)])
	}
	benchSink = sink
}

var benchSink float64
