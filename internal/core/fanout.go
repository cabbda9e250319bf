package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/object"
)

// help is one of the engine's helpers: it runs stages from jobs until it takes a quit.
func (e *Engine) help(quit chan struct{}) {
	for {
		select {
		case f := <-e.jobs:
			f.run(e, f, int(f.joined.Add(1)))
			f.wg.Done()
		case <-quit:
			return
		}
	}
}

// fanout is one query stage spread over the caller (worker 0) and the
// helpers that took it (1…), each running run on units it claims in order.
type fanout struct {
	run              func(e *Engine, f *fanout, w int)
	v                *view
	sc               *queryScratch
	units            int
	next             atomic.Int64 // the next unclaimed unit; past units once the caller is done
	joined           atomic.Int32 // helpers that took the stage
	wg               sync.WaitGroup
	ix               *hindex.Index // descent: one sealed index, their count, rows and bitmap words
	nix, rows, words int
	cands            []int // bounds
	sqrtW            bool
	lbs              []lbCand // walk
	margin           float64
	published        atomic.Uint64 // walk: Float64bits of the committed prefix's kth-best distance
}

// fanWorker is one worker's buffers (the caller's object buffer is sc.segs).
type fanWorker struct {
	segs []object.Segment // Engine.object's

	seen                   []uint64 // the descent's dedup bitmap for the pair at hand
	probe                  []int32  // one descent step's new candidate rows in one segment
	rowMin, colMin         []int32  // sketchLowerBound's cross minima
	ow                     []float64
	lookups, cands, radius int // descent tallies
	probeDur, verifyDur    time.Duration
}

// walkSlot is a walk position's outcome (d, or lb past its bound), ready once written.
type walkSlot struct {
	idx   int
	d, lb float64
	ready atomic.Bool
}

// fanOut arms sc.fan, hands it without waiting to up to units−1 idle helpers
// and returns the worker count (the caller works too, then joins): only for
// a multi-segment query, when share holds, and while fewer queries are in
// flight than there are workers (DESIGN.md §7).
func (e *Engine) fanOut(v *view, sc *queryScratch, run func(*Engine, *fanout, int), units int, share bool) int {
	f, n := &sc.fan, 0
	f.run, f.v, f.sc, f.units = run, v, sc, units
	f.next.Store(0)
	f.joined.Store(0)
	resize(&sc.workers, e.helpers+1)
	if share && len(sc.qset.Sketches) > 1 && e.met.inflight.Value() <= int64(e.helpers) {
		for ; n < min(e.helpers, units-1); n++ {
			f.wg.Add(1)
			select {
			//lint:ignore poolescape the caller joins every helper it hands sc.fan to (fanout.join) before the stage returns, so the scratch never outlives its query
			case e.jobs <- f:
				continue
			default:
				f.wg.Done()
			}
			break
		}
	}
	return n + 1
}

// claim takes the next unit, or returns f.units once none is left.
func (f *fanout) claim() int { return int(min(f.next.Add(1)-1, int64(f.units))) }

// join stops the stage's claims and waits for its helpers.
func (f *fanout) join() {
	f.next.Store(math.MaxInt32)
	f.wg.Wait()
	f.v = nil
}

// speculate is a helper's share of the walk (see rankLoop).
func (e *Engine) speculate(f *fanout, w int) {
	for i := f.claim(); i < f.units; i = f.claim() {
		if walkLag != nil {
			walkLag(i)
		}
		e.evalPosition(f, i, math.Float64frombits(f.published.Load()), &f.sc.workers[w].segs)
		f.sc.outs[i].ready.Store(true)
	}
}

// walkLag, set by tests, delays helpers' walk evaluations.
var walkLag func(pos int)
