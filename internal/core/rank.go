package core

import (
	"math"
	"runtime"
	"slices"

	"ferret/internal/emd"
	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/vector"
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

// pruneMargin scales a candidate's sketch-estimated EMD lower bound before
// it is compared to the kth-best distance: the candidate is pruned only when
// pruneMargin·LB exceeds it. Below 1 it absorbs sketch estimation noise —
// the bound is over estimated costs, the distance over exact ones.
const pruneMargin = 0.85

// rankCandidates is the ranking unit for Filtering mode: the accurate
// object distance over the candidate set, kept in a top-K heap. It picks
// the prune margin for rankLoop, and so the distance evalPosition uses:
//
//  1. The built-in EMD (margin pruneMargin): an exact solve that
//     accumulates an exact lower bound while it fills its ground cost
//     matrix, row by row, and abandons — sometimes before the matrix is
//     complete, always before the solve — once the candidate provably
//     cannot enter the top K (ferret_rank_emd_abandoned_total). Abandoning
//     never changes results.
//  2. A plug-in ObjectDistance (no margin): the sketch bound is a bound on
//     EMD, not on an arbitrary plug-in, so every candidate is evaluated.
//  3. A sketch-only store (margin 1): the sketch-estimated EMD. Its lower
//     bound comes from the same estimated cost matrix, so it is exact and
//     pruning provably cannot change the results.
func (e *Engine) rankCandidates(v *view, sc *queryScratch) ([]Result, bool) {
	switch {
	case !sc.hasQ:
		return e.rankLoop(v, sc, 1, false)
	case e.objDistBounded != nil:
		return e.rankLoop(v, sc, pruneMargin, e.cfg.SqrtWeights)
	}
	return e.rankLoop(v, sc, 0, e.cfg.SqrtWeights)
}

// rankLoop is the one Filtering rank loop. It walks the candidates and
// evaluates each against bound: the current kth-best distance (+Inf until
// the heap is full), or +Inf throughout when the loop walks candidate order.
//
// With a positive margin and query sketches to bound with, each
// candidate's object distance is first lower-bounded from the
// already-resident sketches (no feature-vector access, see lowerBounds) and
// the candidates are walked by ascending bound; once margin·LB of the next
// exceeds the kth-best distance the remaining tail is skipped
// (ferret_rank_emd_pruned_total). Otherwise they are walked in candidate
// order.
//
// The walk's positions are spread over the query's workers (fanOut), who
// evaluate against the published bound — the committed prefix's kth-best
// distance — while the caller commits outcomes in position order, applying
// the prune rule and the abandon test (lb > bound) with each position's own
// bound. Stop, pushes and counts are a lone caller's (DESIGN.md §7).
//
// The loop honors the query clock per position, since every evaluation is
// a full solve: context cancellation stops it outright (the caller discards
// the partial answer and returns the context's error), while budget expiry
// degrades — the committed head keeps its exact ranking and every
// uncommitted candidate is appended in ascending sketch-lower-bound
// order until K results (degradedResults). The bool reports that
// degradation.
func (e *Engine) rankLoop(v *view, sc *queryScratch, margin float64, sqrtW bool) ([]Result, bool) {
	clk, cands := &sc.clk, sc.cands
	hasSketches := len(sc.qset.Sketches) > 0
	var lbs []lbCand // nil: candidate order
	if margin > 0 && hasSketches {
		lbs = e.lowerBounds(v, cands, sqrtW, sc)
	}
	top := newTopK(sc.opt.K)
	clear(resize(&sc.outs, len(cands)))
	f, outs := &sc.fan, sc.outs
	f.lbs, f.margin = lbs, margin
	f.published.Store(math.Float64bits(math.Inf(1)))
	sc.rankWorkers = e.fanOut(v, sc, (*Engine).speculate, len(cands), lbs != nil)
	alone := sc.rankWorkers == 1 // no claims or publishes: locked ops fence off the next candidate's loads
	for j := range min(len(cands), entryAhead) {
		f.prefetch(j, j < recordAhead)
	}
	evals, pruned, abandoned, i, degraded := 0, 0, 0, 0, false
	for ; i < len(cands); i++ {
		if j := i + entryAhead; j < len(cands) {
			f.prefetch(j, false)
		}
		if j := i + recordAhead; j < len(cands) {
			f.prefetch(j, true)
		}
		if clk.stop() {
			break
		}
		if clk.overBudget() {
			degraded = true
			break
		}
		if lbs != nil && top.full() && lbs[i].lb*margin > top.bound() {
			pruned = len(lbs) - i
			break
		}
		if alone {
			e.evalPosition(f, i, top.bound(), &sc.segs)
		}
		for !alone && !outs[i].ready.Load() {
			if j := f.claim(); j < len(cands) {
				e.evalPosition(f, j, top.bound(), &sc.segs)
				outs[j].ready.Store(true)
			} else {
				runtime.Gosched()
			}
		}
		if outs[i].lb > top.bound() { // abandoned under this position's own bound
			abandoned++
		} else {
			evals++
			ent := &v.entries[outs[i].idx]
			if top.push(Result{ID: ent.id, Key: ent.key, Distance: outs[i].d}); !alone {
				f.published.Store(math.Float64bits(top.bound()))
			}
		}
	}
	f.join()
	// rest is the uncommitted tail, LB-ascending, once the budget expires.
	var rest []lbCand
	if degraded && lbs != nil {
		rest = lbs[i:]
	} else if degraded && hasSketches {
		rest = e.lowerBounds(v, cands[i:], sqrtW, sc)
	}
	e.met.emdEvals.Add(evals)
	e.met.emdPruned.Add(pruned)
	e.met.emdAbandoned.Add(abandoned)
	e.met.heapTrims.Add(top.trims)
	sc.rankEvals, sc.rankPruned, sc.rankAbandoned = evals, pruned, abandoned
	if degraded {
		return degradedResults(v, top, rest, sc.opt.K), true
	}
	return top.sorted(), false
}

// The walk prefetches ahead of the position it is about to commit: the
// sketchEntry of the position entryAhead on, then — the entry long since
// arrived — the whole record of the position recordAhead on, so the first
// touch of a candidate's record (its header, then its vectors) finds it in
// cache instead of waiting on memory. A prefetch is only a cache hint; no
// value, answer or count depends on it. Measured on BenchmarkRankShapeCold's
// corpus at one core, alternating rounds of its 256 queries in one process:
// the rank stage took 0.71× the time unhinted (20 of 20 rounds); record
// distances 2–8 were within 1 % of each other and 1 was 5 % slower; entry
// distances 5–8 tied and 12–16 were 1 % slower.
const (
	recordAhead = 4
	entryAhead  = 2 * recordAhead
)

// prefetch issues the cache hints for walk position i: its sketchEntry, or
// with record its feature-vector record (nil, and no hint, in sketch-only
// stores).
func (f *fanout) prefetch(i int, record bool) {
	idx := f.sc.cands[i]
	if f.lbs != nil {
		idx = f.lbs[i].idx
	}
	if record {
		vector.Prefetch(f.v.entries[idx].rec)
	} else {
		vector.Prefetch(f.v.entries[idx : idx+1])
	}
}

// evalPosition evaluates walk position i into its slot under bound (a
// helper's: the published one); segs is the worker's object buffer.
func (e *Engine) evalPosition(f *fanout, i int, bound float64, segs *[]object.Segment) {
	s, sc := &f.sc.outs[i], f.sc
	if s.idx = sc.cands[i]; f.lbs != nil {
		s.idx = f.lbs[i].idx
	} else {
		bound = math.Inf(1) // candidate order: no bound
	}
	if f.lbs != nil && f.lbs[i].lb*f.margin > bound {
		s.lb = math.Inf(1) // skipped: the walk stops at or before it
	} else if !sc.hasQ {
		s.d = e.sketchObjectDistanceAt(f.v, sc.qset, s.idx)
	} else if e.objDistBounded == nil {
		s.d = e.objDist(sc.q, e.object(f.v, s.idx, segs))
	} else {
		s.d, s.lb = e.objDistBounded(sc.q, e.object(f.v, s.idx, segs), bound)
	}
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

// lowerBounds computes each candidate's sketch-estimated object-distance
// lower bound into pooled scratch and returns them sorted ascending, so the
// ranking loop meets its likely-nearest candidates first and the prune
// bound tightens as early as possible. The query sketches are packed for
// the cross-min kernel once here, not once per candidate. Chunks of
// candidates are spread over the query's workers (fanOut).
func (e *Engine) lowerBounds(v *view, cands []int, sqrtW bool, sc *queryScratch) []lbCand {
	normalizedWeights(&sc.qw, sc.qset.Weights, sqrtW)
	sc.ms.Reset(sc.qset.Sketches)
	lbs := resize(&sc.lbs, len(cands))
	sc.fan.cands, sc.fan.sqrtW = cands, sqrtW
	e.fanOut(v, sc, (*Engine).boundChunks, (len(cands)+boundChunk-1)/boundChunk, true)
	e.boundChunks(&sc.fan, 0)
	sc.fan.join()
	sortLBCands(lbs)
	return lbs
}

// boundChunk is how many candidates one unit of the bounds stage bounds.
const boundChunk = 64

// boundAhead is how many candidates ahead of the one being bounded the
// bounds stage prefetches its sketch rows; the candidate's arena start
// offsets, which locate the rows, are prefetched twice as far ahead.
// Measured as recordAhead is: the bounds stage took 0.87× the time unhinted
// (16 of 20 rounds); 4 tied with 8, 16 and 32 were 1–3 % slower.
const boundAhead = 8

// boundChunks is worker w's share of lowerBounds.
func (e *Engine) boundChunks(f *fanout, w int) {
	sc, wk := f.sc, &f.sc.workers[w]
	for c := f.claim(); c < f.units; c = f.claim() {
		for i := c * boundChunk; i < min(len(f.cands), (c+1)*boundChunk); i++ {
			if j := i + 2*boundAhead; j < len(f.cands) {
				f.v.prefetchStart(f.cands[j])
			}
			if j := i + boundAhead; j < len(f.cands) {
				f.v.prefetchRows(f.cands[j])
			}
			sc.lbs[i] = lbCand{f.cands[i], e.sketchLowerBound(f.v, sc.qw, f.cands[i], f.sqrtW, sc, wk)}
		}
	}
}

// sketchLowerBound lower-bounds the EMD between the query's sketch set and
// entry idx using only arena-resident sketches: the ground costs are the
// sketch-estimated segment distances and the bound is the larger of the two
// independent one-sided minimizations (every unit of supply pays at least
// its cheapest row cost; symmetrically for demand) — the same inequality as
// emd.DistanceBounded's abandon bound, over estimated rather than exact costs.
// The m×n cells never become estimates: sketch.HammingCrossMin reduces them
// to each row's and each column's least Hamming distance, and the estimate
// table, being non-decreasing (see estimateTable), maps a least distance to
// the least estimate — est[min h] = min est[h] — so m+n table reads give the
// bits m·n would.
//
// sc.ms must hold the query's sketches (lowerBounds packs them); wk is the worker.
//
//ferret:noalloc
func (e *Engine) sketchLowerBound(v *view, qw []float64, idx int, sqrtW bool, sc *queryScratch, wk *fanWorker) float64 {
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
	rowMin, colMin := resize(&wk.rowMin, m), resize(&wk.colMin, n)
	sketch.HammingCrossMin(&sc.ms, a.words, lo*a.wps, n, rowMin, colMin)
	est := e.est
	var lbSupply float64
	for i, h := range rowMin {
		lbSupply += qw[i] * est[h]
	}
	var lbDemand float64
	for j, w := range normalizedWeights(&wk.ow, a.weight[lo:hi], sqrtW) {
		lbDemand += w * est[colMin[j]]
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
// b.N()-bit sketch: b.EstimateL1(h), capped at a positive threshold. The
// table is non-decreasing in h (TestEstimateTableMonotone), which
// sketchLowerBound relies on to look up only each row's and column's least
// Hamming distance.
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
