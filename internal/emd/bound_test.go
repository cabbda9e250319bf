package emd

import (
	"math"
	"math/rand"
	"testing"

	"ferret/internal/object"
)

// The lower bound must never exceed the exact distance, and DistanceBounded
// must return the exact distance whenever the bound does not fire.
func TestLowerBoundNeverExceedsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x, y := randObj(rng), randObj(rng)
		exact, err := Distance(x, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// An infinite or negative bound disables abandonment: Distance is
		// DistanceBounded at +Inf, so the same bits are required.
		for _, bound := range []float64{math.Inf(1), -1} {
			d, ok, err := DistanceBounded(x, y, Options{}, bound)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || d != exact {
				t.Fatalf("trial %d: DistanceBounded(bound %g) = (%g, %v), want (%g, true)", trial, bound, d, ok, exact)
			}
		}
		// A tight bound may abandon, but only with lb ≤ exact.
		d, ok, err := DistanceBounded(x, y, Options{}, exact*0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !ok && d > exact+1e-9 {
			t.Fatalf("trial %d: abandoned with lb %g > exact %g", trial, d, exact)
		}
		if ok && d != exact {
			t.Fatalf("trial %d: non-abandoned distance %g != exact %g", trial, d, exact)
		}
	}
}

// Abandonment must fire only when the candidate truly cannot beat the
// bound: lb > bound ⇒ exact > bound.
func TestDistanceBoundedAbandonIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	abandoned := 0
	for trial := 0; trial < 300; trial++ {
		x, y := randObj(rng), randObj(rng)
		exact, err := Distance(x, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound := exact * (0.2 + 1.6*rng.Float64())
		d, ok, err := DistanceBounded(x, y, Options{}, bound)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			abandoned++
			if exact <= bound {
				t.Fatalf("trial %d: abandoned (lb %g) but exact %g ≤ bound %g", trial, d, exact, bound)
			}
		}
		// Row by row or not, the abandoned set is the one the whole-matrix
		// bound selects (1×1 pairs have no matrix and are never abandoned).
		if supply, demand, cost := oracleCosts(x, y, Options{}); len(supply)*len(demand) > 1 {
			if lb := lowerBoundRef(supply, demand, cost); ok == (lb > bound) {
				t.Fatalf("trial %d: LowerBound %g, bound %g, but exact = %v", trial, lb, bound, ok)
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no trial abandoned: bound hook never fired")
	}
}

// Threshold and sqrt-weight options must flow through the bounded path.
func TestDistanceBoundedOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opt := Options{Threshold: 0.8, SqrtWeights: true}
	for trial := 0; trial < 50; trial++ {
		x, y := randObj(rng), randObj(rng)
		exact, err := Distance(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		d, ok, err := DistanceBounded(x, y, opt, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || d != exact {
			t.Fatalf("trial %d: got (%g, %v), want (%g, true)", trial, d, ok, exact)
		}
	}
}

func TestLowerBoundExactFor1xN(t *testing.T) {
	supply := []float64{1}
	demand := []float64{0.25, 0.25, 0.5}
	cost := [][]float64{{3, 1, 2}}
	want := 0.25*3 + 0.25*1 + 0.5*2
	val, _, err := Solve(supply, demand, cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-want) > 1e-12 {
		t.Fatalf("Solve = %g, want %g", val, want)
	}
	if lb := lowerBoundRef(supply, demand, cost); math.Abs(lb-want) > 1e-12 {
		t.Fatalf("LowerBound = %g, want %g (exact for 1×n)", lb, want)
	}
}

func TestBoundedObjectDistanceErrorIsInf(t *testing.T) {
	f := BoundedObjectDistance(Options{})
	good := obj([]float32{1}, []float32{0})
	var empty object.Object
	d, lb := f(good, empty, 1)
	if lb > 1 || !math.IsInf(d, 1) {
		t.Fatalf("error case = (%g, lb %g), want +Inf, not abandoned", d, lb)
	}
}

// lowerBoundRef is the whole-matrix reference for the bound workspace.fill
// accumulates row by row: the independent-minimization lower bound on the
// transportation optimum for the given (normalized, balanced) marginals and
// cost matrix: every unit of supply must pay at least its cheapest edge, and
// symmetrically for demand, so
//
//	LB = max( Σᵢ supplyᵢ·minⱼ costᵢⱼ , Σⱼ demandⱼ·minᵢ costᵢⱼ ) ≤ EMD.
//
// It is exact for 1×n and m×1 problems and costs O(m·n) — no simplex.
func lowerBoundRef(supply, demand []float64, cost [][]float64) float64 {
	var lbS float64
	for i, s := range supply {
		row := cost[i]
		min := math.Inf(1)
		for _, c := range row {
			if c < min {
				min = c
			}
		}
		lbS += s * min
	}
	var lbD float64
	for j, d := range demand {
		min := math.Inf(1)
		for i := range cost {
			if c := cost[i][j]; c < min {
				min = c
			}
		}
		lbD += d * min
	}
	if lbD > lbS {
		return lbD
	}
	return lbS
}
