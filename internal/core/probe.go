package core

import (
	"time"

	"ferret/internal/sketch"
	"ferret/internal/vector"
)

// HIndexParams configures the optional multi-table Hamming index over each
// sealed segment's arena (see internal/hindex and DESIGN.md §12).
type HIndexParams struct {
	// Enable builds an index for every segment as it is sealed or merged, its
	// table count derived from the sketch width; a query descends it step by
	// step until its k nearest sealed rows are provably found, falling back
	// to the arena scan when the descent has cost as much as the scan would.
	// The mutable tail is always swept.
	Enable bool
}

// probeCost prices one bucket look-up or one verified candidate — a dependent
// random memory access each — in rows of the arena sweep's streaming kernel
// (measured 7–30 under the per-row select kernel; ≈ 37 rows of a four-pair
// sweep for 2-word rows under the row-parallel one, DESIGN.md §12.2).
const probeCost = 8

// rowAhead is how many candidates ahead of the one being verified the
// descent prefetches an arena row: the step's rows arrive in bucket order,
// scattered over the arena, so each is a cache miss the Hamming kernel would
// otherwise wait on. Measured as recordAhead is (rank.go): the filter stage
// took 0.88× the time unhinted (16 of 20 rounds); 4–16 were within 1 % of
// each other, 2 and 32 1–4 % slower.
const rowAhead = 8

// indexDescent serves the query's pairs from the sealed segments' Hamming
// indexes, which answer together as one index over the sealed corpus: however
// the compactor has split it, a pair descends once, against all of it. Step t
// probes one substring table of every segment at one substring distance
// (hindex.AppendStep; one dedup bitmap spans the segments and the steps) and
// verifies the new candidates against the pair's query sketch into the pair's
// heap — still empty, the descent comes before any sweep — under the sweep's
// (hamming, entry) pair order and the sweep's acceptance bound,
// min(maxHam, worst kept). It leaves in sc.spairs the pairs the sealed
// segments' arena sweeps must still serve.
//
// Correctness: after step t every sealed row within Hamming distance t of the
// query sketch has been a candidate (pigeonhole, see package hindex). Rows
// tombstoned since an index was built are among them and are dropped here, as
// the sweep drops them on replay. The pair is settled — its heap is what a
// sweep of the sealed segments would have left — as soon as
//
//   - t ≥ maxHam: every sealed row the sweep would have accepted was seen; or
//   - the heap is full with worst() ≤ t: its k pairs are the smallest among
//     the rows seen, and every unseen row lies beyond t, so behind all of
//     them in the pair order.
//
// Otherwise another step is taken, unless — round 0 done — it would not pay:
// when the look-ups made and candidates verified so far plus the step's
// StepKeys look-ups, priced at probeCost, exceed the rows the sweep would
// stream, the pair's heap is emptied again and the pair joins the sweep. A
// heap that cannot fill — k above the rows in reach, a selective Restrict —
// ends this way, having cost about one more sweep at most.
//
// Each pair descends whole on one worker (fanOut); it returns the worker count.
//
//ferret:noalloc
func (e *Engine) indexDescent(v *view, sc *queryScratch) int {
	sc.spairs = sc.spairs[:0]
	f := &sc.fan
	f.ix, f.nix, f.rows, f.words = nil, 0, 0, 0
	for _, seg := range v.segs {
		if seg.probed() {
			f.ix = seg.hindex
			f.nix++
			f.rows += f.ix.Rows()
			f.words += (f.ix.Rows() + 63) / 64
		}
	}
	if f.nix == 0 {
		return 1
	}
	start := time.Now()
	workers := e.fanOut(v, sc, (*Engine).descend, len(sc.pairs), true)
	e.descend(f, 0)
	f.join() //lint:ignore noalloc WaitGroup.Wait parks on a semaphore and allocates nothing (TestFilterPathAllocsIndexed)
	lookups, cands, radius := 0, 0, 0
	for _, w := range sc.workers[:workers] {
		lookups, cands, radius = lookups+w.lookups, cands+w.cands, max(radius, w.radius)
	}
	for _, p := range sc.pairs {
		if p.swept {
			sc.spairs = append(sc.spairs, p)
		}
	}
	sc.idxSegs += f.nix * (len(sc.pairs) - len(sc.spairs))
	sc.scannedN += cands
	e.met.hixProbes.Add(f.nix * len(sc.pairs))
	e.met.hixBaseline.Add(f.rows * len(sc.pairs))
	e.met.hixFallback.Add(f.nix * len(sc.spairs))
	e.met.hixCandidates.Add(cands)
	e.met.hixLookups.Add(lookups)
	// Each phase's span carries the caller's own time in it, laid end to end.
	for _, phase := range [...]struct {
		name string
		dur  time.Duration
	}{{StageHProbe, sc.workers[0].probeDur}, {StageHVerify, sc.workers[0].verifyDur}} {
		sc.trp.Record(phase.name, start, phase.dur).
			SetAttr("candidates", int64(cands)).
			SetAttr("rounds", int64(radius/f.ix.Tables()+1)).
			SetAttr("lookups", int64(lookups)).
			SetAttr("radius", int64(radius))
		start = start.Add(phase.dur)
	}
	return workers
}

// descend is worker w's share of indexDescent, tallied in sc.workers[w].
//
//ferret:noalloc
func (e *Engine) descend(f *fanout, w int) {
	v, sc, ix, nix, wk := f.v, f.sc, f.ix, f.nix, &f.sc.workers[w]
	seen := resize(&wk.seen, f.words)
	wk.lookups, wk.cands, wk.radius, wk.probeDur, wk.verifyDur = 0, 0, 0, 0, 0
	at := time.Now()
	for j := f.claim(); j < f.units; j = f.claim() {
		p := sc.pairs[j]
		clear(seen)
		t, spent, settled := 0, 0, false // step; look-ups made plus candidates verified
		for ; !settled; t++ {
			keys := nix * ix.StepKeys(t)
			if t >= ix.Tables() && probeCost*(spent+keys) > f.rows {
				break
			}
			spent += keys
			wk.lookups += keys
			off := 0
			for _, seg := range v.segs {
				if !seg.probed() {
					continue
				}
				a := &seg.arena
				wk.probe = seg.hindex.AppendStep(wk.probe[:0], p.qsk, t, seen[off:])
				off += (seg.hindex.Rows() + 63) / 64
				now := time.Now()
				wk.probeDur += now.Sub(at)
				at = now

				bound := min(p.maxHam, p.heap.worst())
				for i, row := range wk.probe {
					if i%scanCheckStride == 0 && sc.clk.stop() {
						break
					}
					if j := i + rowAhead; j < len(wk.probe) {
						o := int(wk.probe[j]) * a.wps
						vector.Prefetch(a.words[o : o+a.wps])
					}
					h := sketch.HammingAt(p.qsk, a.words, int(row)*a.wps)
					if h > bound {
						continue
					}
					li := int(a.entry[row])
					g := seg.loEntry + li
					if r := sc.opt.Restrict; seg.dead.has(li) || (r != nil && !r[v.entries[g].id]) {
						continue
					}
					p.heap.push(g, h)
					bound = min(bound, p.heap.worst())
				}
				spent += len(wk.probe)
				wk.cands += len(wk.probe)
				now = time.Now()
				wk.verifyDur += now.Sub(at)
				at = now
			}
			settled = t >= p.maxHam || (p.heap.full() && p.heap.worst() <= t) || sc.clk.stop()
		}
		wk.radius = max(wk.radius, t-1)
		if sc.pairs[j].swept = !settled; !settled {
			p.heap.reset(p.heap.k, len(p.heap.cnt)-1)
		}
	}
}

// filterMode renders the scratch's per-segment accounting as the answer's
// mode flag: which machinery served the filtering unit.
func (sc *queryScratch) filterMode() string {
	switch {
	case sc.idxSegs > 0 && sc.scanSegs > 0:
		return FilterModeMixed
	case sc.idxSegs > 0:
		return FilterModeIndex
	case sc.scanSegs > 0:
		return FilterModeScan
	default:
		return ""
	}
}

// Answer.FilterMode values.
const (
	FilterModeIndex = "index" // every filter segment served by the Hamming index
	FilterModeScan  = "scan"  // every filter segment served by an arena scan
	FilterModeMixed = "mixed" // some probes fell back to the scan
)
