package core

import (
	"math"
	"math/bits"
	"slices"

	"ferret/internal/emd"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
)

// lbCand pairs a candidate entry index with its sketch-estimated
// object-distance lower bound.
type lbCand struct {
	idx int
	lb  float64
}

// sortLBCands orders candidates by ascending lower bound (ties by entry
// index, for determinism).
func sortLBCands(lbs []lbCand) {
	slices.SortFunc(lbs, func(a, b lbCand) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		}
		return 0
	})
}

// rankCandidates is the ranking unit for Filtering mode: the accurate
// object distance over the candidate set, kept in a top-K heap.
//
// When the engine uses the built-in EMD object distance, two pruning tiers
// cut evaluations without changing the ranked results (up to ties):
//
//  1. Sketch lower bound: each candidate's object distance is
//     lower-bounded from the already-resident sketches (no feature-vector
//     access), candidates are ranked by ascending bound, and once
//     Margin·LB of the next candidate exceeds the kth-best distance the
//     remaining tail is skipped (ferret_rank_emd_pruned_total).
//  2. Exact-cost early abandon: each surviving EMD evaluation accumulates
//     an exact lower bound while it fills its ground cost matrix, row by
//     row, and stops — sometimes before the matrix is complete, always
//     before the solve — once the candidate provably cannot enter the top K
//     (ferret_rank_emd_abandoned_total). This tier never changes results.
//
// Both ranking units also honor the query clock: context cancellation stops
// the loop outright (the caller discards the partial answer and returns the
// context's error), while budget expiry degrades — the evaluated head keeps
// its exact ranking and every not-yet-evaluated candidate is appended in
// ascending sketch-lower-bound order until K results (degradedResults).
// The returned bool reports that degradation.
func (e *Engine) rankCandidates(v *view, sc *queryScratch) ([]Result, bool) {
	clk, q, qset, cands, opt := &sc.clk, sc.q, sc.qset, sc.cands, sc.opt
	top := newTopK(opt.K)
	evals, abandoned, pruned := 0, 0, 0

	eval := func(idx int, bound float64) {
		ent := &v.entries[idx]
		var o object.Object
		if e.cfg.LowMemory {
			var ok bool
			o, ok = e.meta.GetObject(ent.id)
			if !ok {
				return
			}
		} else {
			o = v.objects[idx]
		}
		if e.objDistBounded != nil && !math.IsInf(bound, 1) {
			d, exact := e.objDistBounded(q, o, bound)
			if !exact {
				abandoned++
				return
			}
			evals++
			top.push(Result{ID: ent.id, Key: ent.key, Distance: d})
			return
		}
		evals++
		top.push(Result{ID: ent.id, Key: ent.key, Distance: e.objDist(q, o)})
	}

	// rest collects the unevaluated tail (LB-ascending) when the budget
	// expires; degradeAt < 0 means the rank ran to completion.
	degradeAt := -1
	var rest []lbCand
	if e.pruneEnabled(qset) {
		lbs := e.lowerBounds(v, cands, e.cfg.SqrtWeights, sc)
		margin := e.cfg.Prune.margin()
		for i := range lbs {
			if clk.stop() {
				break
			}
			// Every evaluation is a full EMD solve, so the budget is
			// checked per candidate.
			if clk.overBudget() {
				degradeAt = i
				rest = lbs[i:]
				break
			}
			if top.full() && lbs[i].lb*margin > top.bound() {
				pruned += len(lbs) - i
				break
			}
			eval(lbs[i].idx, top.bound())
		}
		e.met.emdPruned.Add(pruned)
	} else {
		for i, idx := range cands {
			if clk.stop() {
				break
			}
			if clk.overBudget() {
				degradeAt = i
				if qset != nil && len(qset.Sketches) > 0 {
					rest = e.lowerBounds(v, cands[i:], e.cfg.SqrtWeights, sc)
				}
				break
			}
			eval(idx, math.Inf(1))
		}
	}
	e.met.emdEvals.Add(evals)
	e.met.emdAbandoned.Add(abandoned)
	e.met.heapTrims.Add(top.trims)
	sc.rankEvals, sc.rankPruned, sc.rankAbandoned = evals, pruned, abandoned
	if degradeAt >= 0 {
		return degradedResults(v, top, rest, opt.K), true
	}
	return top.sorted(), false
}

// degradedResults assembles a budget-expired answer: the exactly ranked
// results so far, then unranked candidates in ascending sketch-lower-bound
// order (Distance carries the sketch estimate) until K results.
func degradedResults(v *view, top *topK, rest []lbCand, k int) []Result {
	res := top.sorted()
	for _, c := range rest {
		if len(res) >= k {
			break
		}
		ent := &v.entries[c.idx]
		res = append(res, Result{ID: ent.id, Key: ent.key, Distance: c.lb})
	}
	return res
}

// rankSketchCandidates ranks candidates with the sketch-estimated object
// distance (sketch-only databases). Here the lower bound and the ranking
// distance are derived from the same estimated cost matrix, so the bound is
// exact (no margin) and pruning provably cannot change the results.
func (e *Engine) rankSketchCandidates(v *view, sc *queryScratch) ([]Result, bool) {
	clk, qset, cands, opt := &sc.clk, sc.qset, sc.cands, sc.opt
	top := newTopK(opt.K)
	evals, pruned := 0, 0
	degradeAt := -1
	var rest []lbCand
	if !e.cfg.Prune.Disable && len(qset.Sketches) > 0 {
		lbs := e.lowerBounds(v, cands, false, sc)
		for i := range lbs {
			if clk.stop() {
				break
			}
			if clk.overBudget() {
				degradeAt = i
				rest = lbs[i:]
				break
			}
			if top.full() && lbs[i].lb > top.bound() {
				pruned += len(lbs) - i
				break
			}
			idx := lbs[i].idx
			ent := &v.entries[idx]
			evals++
			top.push(Result{ID: ent.id, Key: ent.key, Distance: e.sketchObjectDistanceAt(v, qset, idx)})
		}
		e.met.emdPruned.Add(pruned)
	} else {
		for i, idx := range cands {
			if clk.stop() {
				break
			}
			if clk.overBudget() {
				degradeAt = i
				if len(qset.Sketches) > 0 {
					rest = e.lowerBounds(v, cands[i:], false, sc)
				}
				break
			}
			ent := &v.entries[idx]
			evals++
			top.push(Result{ID: ent.id, Key: ent.key, Distance: e.sketchObjectDistanceAt(v, qset, idx)})
		}
	}
	e.met.emdEvals.Add(evals)
	e.met.heapTrims.Add(top.trims)
	sc.rankEvals, sc.rankPruned, sc.rankAbandoned = evals, pruned, 0
	if degradeAt >= 0 {
		return degradedResults(v, top, rest, opt.K), true
	}
	return top.sorted(), false
}

// pruneEnabled reports whether sketch lower-bound pruning applies: it needs
// the built-in EMD object distance (the bound is a bound on EMD, not on an
// arbitrary plug-in) and query sketches to bound with.
func (e *Engine) pruneEnabled(qset *metastore.SketchSet) bool {
	return !e.cfg.Prune.Disable && e.objDistBounded != nil &&
		qset != nil && len(qset.Sketches) > 0
}

// lowerBounds computes each candidate's sketch-estimated object-distance
// lower bound into pooled scratch and returns them sorted ascending, so the
// ranking loop meets its likely-nearest candidates first and the prune
// bound tightens as early as possible.
func (e *Engine) lowerBounds(v *view, cands []int, sqrtW bool, sc *queryScratch) []lbCand {
	qw := normalizedWeights(&sc.qw, sc.qset.Weights, sqrtW)
	lbs := sc.lbs[:0]
	for _, idx := range cands {
		lbs = append(lbs, lbCand{idx, e.sketchLowerBound(v, qw, idx, sqrtW, sc)})
	}
	sc.lbs = lbs
	sortLBCands(lbs)
	return lbs
}

// sketchLowerBound lower-bounds the EMD between the query's sketch set and
// entry idx using only arena-resident sketches: the ground costs are the
// sketch-estimated segment distances and the bound is the larger of the two
// independent one-sided minimizations (every unit of supply pays at least
// its cheapest row cost; symmetrically for demand) — the same inequality as
// emd.DistanceBounded's abandon bound, over estimated rather than exact costs.
// The m×n cells are one call-free loop over the entry's contiguous arena
// rows: popcount of the XOR (two-word sketches unrolled), a table read.
//
//ferret:noalloc
func (e *Engine) sketchLowerBound(v *view, qw []float64, idx int, sqrtW bool, sc *queryScratch) float64 {
	qset := sc.qset
	seg, li := v.segOf(idx)
	a := &seg.arena
	lo, hi := a.rowsOf(li)
	m, n := len(qset.Sketches), hi-lo
	if m == 0 || n == 0 {
		return infinity
	}
	if m == 1 && n == 1 {
		return e.estimateAt(qset.Sketches[0], a, lo)
	}
	colMin := resize(&sc.colMin, n)
	for j := range colMin {
		colMin[j] = math.Inf(1)
	}
	est, wps := e.est, a.wps
	words := a.words[lo*wps : hi*wps]
	var lbSupply float64
	for i, qsk := range qset.Sketches {
		qsk = qsk[:wps]
		rowMin := math.Inf(1)
		for j := range colMin {
			var h int
			if wps == 2 {
				w := words[2*j : 2*j+2]
				h = bits.OnesCount64(qsk[0]^w[0]) + bits.OnesCount64(qsk[1]^w[1])
			} else {
				h = sketch.HammingAt(qsk, words, j*wps) // inlined
			}
			// Table entries are never NaN or −0: min is the branch-free <.
			d := est[h]
			rowMin = min(rowMin, d)
			colMin[j] = min(colMin[j], d)
		}
		lbSupply += qw[i] * rowMin
	}
	var lbDemand float64
	for j, w := range normalizedWeights(&sc.ow, a.weight[lo:hi], sqrtW) {
		lbDemand += w * colMin[j]
	}
	if lbDemand > lbSupply {
		return lbDemand
	}
	return lbSupply
}

// normalizedWeights normalizes float32 segment weights into pooled scratch
// with the default EMD's own weight handling.
func normalizedWeights(dst *[]float64, w []float32, sqrtW bool) []float64 {
	out := resize(dst, len(w))
	for i, f := range w {
		out[i] = float64(f)
	}
	emd.NormalizeWeights(out, sqrtW)
	return out
}

// sketchObjectDistanceAt estimates the object distance between the query
// sketch set and entry idx from sketches alone: the EMD over the segment
// weights with a ground cost matrix of sketch-estimated ℓ₁ distances.
// Single-segment pairs reduce to one estimated segment distance; an empty
// side ranks last.
func (e *Engine) sketchObjectDistanceAt(v *view, qset *metastore.SketchSet, idx int) float64 {
	seg, li := v.segOf(idx)
	a := &seg.arena
	lo, hi := a.rowsOf(li)
	if len(qset.Sketches) == 1 && hi-lo == 1 {
		return e.estimateAt(qset.Sketches[0], a, lo)
	}
	d, err := emd.Transport(qset.Weights, a.weight[lo:hi], func(i int, row []float64) {
		for j := range row {
			row[j] = e.estimateAt(qset.Sketches[i], a, lo+j)
		}
	})
	if err != nil {
		return infinity
	}
	return d
}

// estimateAt is the estimated segment distance between a query sketch and a
// row of the given segment arena: the estimate-table entry at their Hamming
// distance.
func (e *Engine) estimateAt(q sketch.Sketch, a *sketchArena, row int) float64 {
	return e.est[sketch.HammingAt(q, a.words, row*a.wps)]
}

// estimateTable tabulates the estimator for every Hamming distance h of a
// b.N()-bit sketch: b.EstimateL1(h), capped at a positive threshold.
func estimateTable(b *sketch.Builder, threshold float64) []float64 {
	est := make([]float64, b.N()+1)
	for h := range est {
		d := b.EstimateL1(h)
		if threshold > 0 && d > threshold {
			d = threshold
		}
		est[h] = d
	}
	return est
}
