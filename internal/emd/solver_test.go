package emd

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ferret/internal/object"
	"ferret/internal/synth"
)

// imageOpts is the image workload's EMD: ℓ₁ ground capped at 2.
var imageOpts = Options{Threshold: 2}

// randomProblem draws one balanced m×n transportation problem of total mass
// 1. kind selects the cost structure; the degenerate kinds are the ones a
// thresholded ground distance produces.
func randomProblem(rng *rand.Rand, m, n, kind int) (supply, demand []float64, cost [][]float64) {
	weights := func(k int) []float64 {
		w := make([]float64, k)
		var total float64
		for i := range w {
			w[i] = rng.Float64() + 0.05
			if kind == 1 && k > 1 && rng.Intn(3) == 0 {
				w[i] = 0 // zero-weight rows and columns
			}
			if kind == 2 {
				w[i] = 1 // equal weights: every greedy step ties row against column
			}
			total += w[i]
		}
		if total == 0 {
			w[0], total = 1, 1
		}
		for i := range w {
			w[i] /= total
		}
		return w
	}
	supply, demand = weights(m), weights(n)
	cost = make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			switch kind {
			case 3: // all costs equal
				cost[i][j] = 1.5
			case 4: // all costs capped at the threshold
				cost[i][j] = 2
			case 5: // a few cheap cells in a sea of capped ones
				cost[i][j] = 2
				if rng.Intn(4) == 0 {
					cost[i][j] = float64(rng.Intn(4)) * 0.5
				}
			default:
				cost[i][j] = rng.Float64() * 10
			}
		}
	}
	return supply, demand, cost
}

// TestSolveDifferential runs the tree-basis solver against the old solver
// (oracle_test.go) on seeded problems of every shape from 1×1 to 16×16, and
// against exhaustive basis enumeration where that is feasible.
func TestSolveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	problems, brute := 0, 0
	for round := 0; round < 7; round++ {
		for m := 1; m <= 16; m++ {
			for n := 1; n <= 16; n++ {
				for kind := 0; kind < 6; kind++ {
					supply, demand, cost := randomProblem(rng, m, n, kind)
					val, flow, err := Solve(supply, demand, cost)
					if err != nil {
						t.Fatalf("%dx%d kind %d: %v", m, n, kind, err)
					}
					checkMarginals(t, flow, supply, demand)
					want, _, err := oracleSolve(supply, demand, cost)
					if err != nil {
						t.Fatalf("%dx%d kind %d: oracle: %v", m, n, kind, err)
					}
					if math.Abs(val-want) > 1e-9*math.Max(1, want) {
						t.Fatalf("%dx%d kind %d: Solve = %.15g, oracle = %.15g", m, n, kind, val, want)
					}
					if m*n <= 9 {
						brute++
						if bf := bruteForceLP(supply, demand, cost); math.Abs(val-bf) > 1e-9*math.Max(1, bf) {
							t.Fatalf("%dx%d kind %d: Solve = %.15g, brute force = %.15g", m, n, kind, val, bf)
						}
					}
					problems++
				}
			}
		}
	}
	if problems < 10000 || brute < 500 {
		t.Fatalf("only %d problems (%d brute-forced)", problems, brute)
	}
}

// imagePairs returns every pair among the first n MixedImageObjects; objects
// drawn from overlapping clusters make a good share of them near pairs
// (distance under the threshold), the rest all-capped matrices.
func imagePairs(n int) [][2]object.Object {
	objs := synth.MixedImageObjects(n, 3)
	var pairs [][2]object.Object
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			pairs = append(pairs, [2]object.Object{objs[i], objs[j]})
		}
	}
	return pairs
}

// TestDistanceDifferentialImagePairs: the real workload's matrices — 6 to 15
// segments a side, thresholded, heavily tied — against the old Distance, and
// the pivot count the least-cost start leaves on them.
func TestDistanceDifferentialImagePairs(t *testing.T) {
	pairs := imagePairs(120)
	near, pivots := 0, 0
	for _, p := range pairs {
		got, err := Distance(p[0], p[1], imageOpts)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleDistance(p[0], p[1], imageOpts)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s vs %s: Distance = %.15g, oracle = %.15g", p[0].Key, p[1].Key, got, want)
		}
		if want < 0.75*imageOpts.Threshold {
			near++
		}
		pivots += pivotsOf(p[0], p[1], imageOpts)
	}
	if near < 20 {
		t.Fatalf("only %d near pairs among %d: the corpus no longer exercises uncapped matrices", near, len(pairs))
	}
	// The old northwest-corner start took ~15 pivots per solve here.
	if perSolve := float64(pivots) / float64(len(pairs)); perSolve > 2 {
		t.Fatalf("%.2f pivots per solve on image pairs, want ≤ 2", perSolve)
	}
}

// pivotsOf solves one pair's problem and reports the pivots it took.
func pivotsOf(x, y object.Object, opt Options) int {
	supply, demand, cost := oracleCosts(x, y, opt)
	ws := getWorkspace(len(supply), len(demand))
	defer wsPool.Put(ws)
	copy(ws.a, supply)
	copy(ws.b, demand)
	for i := range cost {
		copy(ws.cost[i*ws.n:], cost[i])
	}
	if _, err := ws.solve(); err != nil {
		panic(err)
	}
	return ws.pivots
}

// TestDistanceBoundedAbandonSet: the row-wise abandon must select exactly the
// pairs the whole-matrix LowerBound selects — no more (it is a partial sum of
// the same non-negative terms in the same order) and no fewer (the finished
// bound is still checked).
func TestDistanceBoundedAbandonSet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	abandoned, early := 0, 0
	for _, opt := range []Options{imageOpts, {}, {Threshold: 1.2, SqrtWeights: true}} {
		for _, p := range imagePairs(40) {
			supply, demand, cost := oracleCosts(p[0], p[1], opt)
			lb := lowerBoundRef(supply, demand, cost)
			for _, bound := range []float64{lb * (0.5 + rng.Float64()), lb, math.Nextafter(lb, 0)} {
				got, exact, err := DistanceBounded(p[0], p[1], opt, bound)
				if err != nil {
					t.Fatal(err)
				}
				if exact == (lb > bound) {
					t.Fatalf("bound %g, LowerBound %g: exact = %v", bound, lb, exact)
				}
				if !exact {
					abandoned++
					if got > lb || got <= bound {
						t.Fatalf("abandoned with %g, want in (bound %g, LowerBound %g]", got, bound, lb)
					}
					if got < lb {
						early++
					}
				}
			}
		}
	}
	if abandoned == 0 || early == 0 {
		t.Fatalf("%d abandoned, %d of them before the last row: the hook never fired", abandoned, early)
	}
}

// TestDistanceConcurrentDeterministic: eight goroutines sharing the workspace
// pool, each walking the pairs from a different offset, get the serial
// answers bit for bit (run under -race).
func TestDistanceConcurrentDeterministic(t *testing.T) {
	pairs := imagePairs(48)
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i], _ = Distance(p[0], p[1], imageOpts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pairs {
				i := (k + g*len(pairs)/8) % len(pairs)
				got, exact, err := DistanceBounded(pairs[i][0], pairs[i][1], imageOpts, want[i]+1e-9)
				if err != nil || !exact || math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d pair %d: (%x, %v, %v), serial %x", g, i, math.Float64bits(got), exact, err, math.Float64bits(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDistanceAllocs: the rank path's two entry points run in the pooled
// workspace and allocate nothing, solve or abandon.
func TestDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	pairs := imagePairs(12)
	for _, c := range []struct {
		name string
		fn   func(x, y object.Object)
	}{
		{"Distance", func(x, y object.Object) { Distance(x, y, imageOpts) }},
		{"DistanceBounded", func(x, y object.Object) { DistanceBounded(x, y, imageOpts, 1.0) }},
		{"DistanceBounded/abandon", func(x, y object.Object) { DistanceBounded(x, y, imageOpts, 0.01) }},
		{"Distance/plain", func(x, y object.Object) { Distance(x, y, Options{}) }},
	} {
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			c.fn(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
			i++
		}); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", c.name, allocs)
		}
	}
}

// BenchmarkEMDImagePairs is the rank stage's unit of work on the image
// workload's own matrices; pivots/op makes a regression of the starting basis
// or the pivot rule visible without a profiler.
func BenchmarkEMDImagePairs(b *testing.B) {
	pairs := imagePairs(48)
	pivots := 0
	for _, p := range pairs {
		pivots += pivotsOf(p[0], p[1], imageOpts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := Distance(p[0], p[1], imageOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pivots)/float64(len(pairs)), "pivots/op")
}

// BenchmarkEMDAudioPairs is the multi-segment, wide-vector case no benchmark
// workload runs: 192-d audio objects of 5 to 12 segments, thresholded so that
// unrelated segment pairs pass the threshold inside their first 64-element
// block. It watches what the ground-distance fill does with a threshold on
// vectors long enough for the block kernel.
func BenchmarkEMDAudioPairs(b *testing.B) {
	objs := synth.MixedAudioObjects(49, 17)
	opts := Options{Threshold: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (len(objs) - 1)
		if _, err := Distance(objs[k], objs[k+1], opts); err != nil {
			b.Fatal(err)
		}
	}
}
