// Package emd implements the Earth Mover's Distance, the Ferret toolkit's
// built-in default object distance function (paper §4.2.2).
//
// Given two distributions represented by weighted sets of feature vectors
// and a ground distance between vectors, EMD is the minimal total work
// (flow × ground distance) needed to transform one distribution into the
// other. The core (solver.go) is an exact transportation-problem solver: a
// least-cost initial basic solution refined by MODI (u-v) pivots over a
// spanning-tree basis, the same family of algorithm as Rubner's reference
// implementation, run in a pooled workspace so a distance allocates nothing.
//
// The package also provides the improved EMD variants from the paper's
// image study [27]: ground-distance thresholding (to limit the effect of
// outlier segments) and square-root segment weighting.
package emd

import (
	"errors"
	"fmt"
	"math"

	"ferret/internal/object"
	"ferret/internal/vector"
)

// Solve computes the optimal transportation plan between supply and demand,
// returning the minimal total cost Σ fᵢⱼ·costᵢⱼ and the flow matrix.
//
// Supplies and demands must be non-negative and have (approximately) equal
// totals; cost must be a len(supply) × len(demand) matrix. The returned flow
// satisfies the marginal constraints Σⱼ fᵢⱼ = supplyᵢ and Σᵢ fᵢⱼ = demandⱼ.
// Solve is the diagnostic form: it validates its input and materializes the
// plan; the ranking path (Distance, Transport) asks for the value only.
func Solve(supply, demand []float64, cost [][]float64) (float64, [][]float64, error) {
	m, n := len(supply), len(demand)
	if m == 0 || n == 0 {
		return 0, nil, errors.New("emd: empty supply or demand")
	}
	if len(cost) != m {
		return 0, nil, fmt.Errorf("emd: cost has %d rows, want %d", len(cost), m)
	}
	var sSum, dSum float64
	for _, s := range supply {
		if s < 0 || math.IsNaN(s) {
			return 0, nil, errors.New("emd: negative or NaN supply")
		}
		sSum += s
	}
	for _, d := range demand {
		if d < 0 || math.IsNaN(d) {
			return 0, nil, errors.New("emd: negative or NaN demand")
		}
		dSum += d
	}
	if sSum <= 0 || dSum <= 0 {
		return 0, nil, errors.New("emd: zero total supply or demand")
	}
	if math.Abs(sSum-dSum) > 1e-4*math.Max(sSum, dSum) {
		return 0, nil, fmt.Errorf("emd: unbalanced problem (supply %g, demand %g)", sSum, dSum)
	}
	for i := range cost {
		if len(cost[i]) != n {
			return 0, nil, fmt.Errorf("emd: cost row %d has %d cols, want %d", i, len(cost[i]), n)
		}
	}

	ws := getWorkspace(m, n)
	defer wsPool.Put(ws)
	copy(ws.a, supply)
	copy(ws.b, demand)
	for i := range cost {
		copy(ws.cost[i*n:], cost[i])
	}
	val, err := ws.solve()
	if err != nil {
		return 0, nil, err
	}
	flow := make([][]float64, m)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	for k, f := range ws.bflow {
		flow[ws.bi[k]][ws.bj[k]] = f
	}
	return val, flow, nil
}

// Options configures the object-level EMD distance.
type Options struct {
	// Ground is the segment (ground) distance; nil means vector.L1.
	Ground vector.Func
	// Threshold, when positive, caps each ground distance before the flow
	// computation (the paper's thresholded EMD, §5.1).
	Threshold float64
	// SqrtWeights, when true, replaces each segment weight w by √w
	// (renormalized) before matching — the square-root weighting from the
	// improved EMD of [27].
	SqrtWeights bool
}

// Distance computes the EMD between two objects under the given options.
// Object weights are normalized internally, so both sides always balance.
// It returns an error only for structurally invalid inputs (no segments or
// dimension mismatch).
func Distance(x, y object.Object, opt Options) (float64, error) {
	d, _, _, err := distanceBounded(x, y, opt, math.Inf(1))
	return d, err
}

// DistanceBounded is Distance with an early-abandon hook for top-K search:
// when the independent-minimization lower bound over the exact ground costs
// already exceeds bound — checked after every cost row, so an abandoned
// candidate need not pay for the whole matrix — the simplex is skipped and
// (lb, false, nil) is returned, lb being a lower bound that exceeds bound.
// Since lb ≤ EMD, an abandoned candidate's true distance also exceeds
// bound, so a ranking unit that drops results above bound gets byte-identical
// answers whether or not abandonment fired. A negative or +Inf bound
// disables abandonment.
func DistanceBounded(x, y object.Object, opt Options, bound float64) (float64, bool, error) {
	d, _, exact, err := distanceBounded(x, y, opt, bound)
	return d, exact, err
}

// distanceBounded is DistanceBounded that also returns lb, the lower bound
// over the exact ground costs that the abandon test compared with bound: the
// whole matrix's when the distance is exact, the partial one that exceeded
// bound when abandoned, 0 for single segments (which never abandon).
func distanceBounded(x, y object.Object, opt Options, bound float64) (d, lb float64, exact bool, err error) {
	m, n := len(x.Segments), len(y.Segments)
	if m == 0 || n == 0 {
		return 0, 0, false, errors.New("emd: object with no segments")
	}
	if x.Dim() != y.Dim() {
		return 0, 0, false, fmt.Errorf("emd: dimension mismatch (%d vs %d)", x.Dim(), y.Dim())
	}
	ground := opt.Ground
	limit := math.Inf(1)
	if opt.Threshold > 0 {
		limit = opt.Threshold
	}
	// Fast path: single-segment objects (3D shape, genomic) reduce to the
	// ground distance itself.
	if m == 1 && n == 1 {
		return groundCost(ground, x.Segments[0].Vec, y.Segments[0].Vec, limit), 0, true, nil
	}
	ws := getWorkspace(m, n)
	defer wsPool.Put(ws)
	for i := range ws.a {
		ws.a[i] = float64(x.Segments[i].Weight)
	}
	for j := range ws.b {
		ws.b[j] = float64(y.Segments[j].Weight)
	}
	ys := y.Segments
	if dim := x.Dim(); ground == nil && dim < 64 {
		// ℓ₁ below one 64-element block, where L1x4 would run only its
		// tail: y's vectors are transposed once into the workspace and each
		// cost row is one row-kernel call over all of them.
		bt, stride := ws.transpose(ys, dim)
		return ws.transport(opt.SqrtWeights, bound, func(i int, row []float64) {
			vector.L1Transposed(x.Segments[i].Vec, bt, stride, row, limit)
		})
	}
	return ws.transport(opt.SqrtWeights, bound, func(i int, row []float64) {
		a, last := x.Segments[i].Vec, len(row)-1
		if ground != nil {
			for j := range row {
				row[j] = groundCost(ground, a, ys[j].Vec, limit)
			}
			return
		}
		// ℓ₁: four columns per kernel call; a short last group repeats the
		// last column, whose lanes then compute (and store) the same value.
		for j := 0; j <= last; j += 4 {
			j1, j2, j3 := min(j+1, last), min(j+2, last), min(j+3, last)
			row[j], row[j1], row[j2], row[j3] = vector.L1x4(a, ys[j].Vec, ys[j1].Vec, ys[j2].Vec, ys[j3].Vec, limit)
		}
	})
}

// groundCost is one ground distance capped at limit (+Inf: uncapped); nil
// ground is ℓ₁, whose capped kernel skips the tail of far-apart vectors.
func groundCost(ground vector.Func, a, b []float32, limit float64) float64 {
	if ground == nil {
		return vector.L1Capped(a, b, limit)
	}
	d := ground(a, b)
	if d > limit {
		return limit
	}
	return d
}

// Transport is the EMD between two weighted sets known only through their
// raw weights and a ground cost row(i, dst), which fills dst[j] with the
// cost between member i of the first and member j of the second — the form
// the engine uses to estimate object distances from sketches alone. Weights
// are normalized as in Distance. A 1×1 problem solves to its one cost.
func Transport(xw, yw []float32, row func(i int, dst []float64)) (float64, error) {
	m, n := len(xw), len(yw)
	if m == 0 || n == 0 {
		return 0, errors.New("emd: empty weighted set")
	}
	ws := getWorkspace(m, n)
	defer wsPool.Put(ws)
	for i, w := range xw {
		ws.a[i] = float64(w)
	}
	for j, w := range yw {
		ws.b[j] = float64(w)
	}
	d, _, _, err := ws.transport(false, math.Inf(1), row)
	return d, err
}

// transport is the one distance body: normalize the loaded weights, fill the
// costs row by row under the abandon bound, solve. lb is the fill's bound
// (see distanceBounded).
func (ws *workspace) transport(sqrtWeights bool, bound float64, row func(i int, dst []float64)) (val, lb float64, exact bool, err error) {
	if bound < 0 {
		bound = math.Inf(1)
	}
	NormalizeWeights(ws.a, sqrtWeights)
	NormalizeWeights(ws.b, sqrtWeights)
	lb, ok := ws.fill(bound, row)
	if !ok {
		return lb, lb, false, nil
	}
	val, err = ws.solve()
	return val, lb, true, err
}

// ObjectDistance returns an object distance function (the paper's
// obj_distance) closing over the given options, for plugging into the
// similarity ranking unit.
func ObjectDistance(opt Options) func(a, b object.Object) float64 {
	return func(a, b object.Object) float64 {
		d, err := Distance(a, b, opt)
		if err != nil {
			// Invalid pairings rank last rather than aborting a query.
			return math.Inf(1)
		}
		return d
	}
}

// BoundedObjectDistance is ObjectDistance's early-abandon form for a bound
// ≥ 0. lb is the lower bound over the exact ground costs that the abandon
// test compared with bound (0 for single segments and invalid pairings,
// which never abandon): the candidate was abandoned, and d is lb, exactly
// when lb > bound; otherwise d is the exact distance, the same bits under
// any bound. A caller that learns a tighter bound b after the call can so
// still tell whether a call under b would have abandoned: lb > b.
func BoundedObjectDistance(opt Options) func(a, b object.Object, bound float64) (d, lb float64) {
	return func(a, b object.Object, bound float64) (float64, float64) {
		d, lb, _, err := distanceBounded(a, b, opt, bound)
		if err != nil {
			return math.Inf(1), 0
		}
		return d, lb
	}
}
