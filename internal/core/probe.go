package core

import (
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
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
// (measured 7–30; EXPERIMENTS.md "k-nearest descent").
const probeCost = 8

// indexDescent serves the batch's pairs from the sealed segments' Hamming
// indexes, which answer together as one index over the sealed corpus: however
// the compactor has split it, a pair descends once, against all of it. Step t
// probes one substring table of every segment at one substring distance
// (hindex.AppendStep; one dedup bitmap spans the segments and the steps) and
// verifies the new candidates against the pair's query sketch into the pair's
// heap — still empty, the descent comes before any sweep — under the sweep's
// (hamming, entry) pair order and the sweep's acceptance bound,
// min(maxHam, worst kept). It leaves in bs.spairs the pairs the sealed
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
//ferret:noalloc
func (e *Engine) indexDescent(v *view, scs []*queryScratch, bs *batchScratch, ref trace.SpanID) {
	bs.spairs = bs.spairs[:0]
	var ix *hindex.Index // any sealed segment's index: all share one geometry
	nix, rows, words := 0, 0, 0
	for _, seg := range v.segs {
		if seg.probed() {
			ix = seg.hindex
			nix++
			rows += ix.Rows()
			words += (ix.Rows() + 63) / 64
		}
	}
	if nix == 0 {
		return
	}
	seen := resize(&bs.seen, words)
	for lo, hi := 0, 0; lo < len(bs.pairs); lo = hi { // one request's pairs at a time
		sc := scs[bs.pairs[lo].req]
		for hi = lo + 1; hi < len(bs.pairs) && bs.pairs[hi].req == bs.pairs[lo].req; hi++ {
		}
		start := time.Now()
		at := start
		var probeDur, verifyDur time.Duration
		lookups, cands, radius := 0, 0, 0
		for _, p := range bs.pairs[lo:hi] {
			clear(seen)
			t, spent, settled := 0, 0, false // step; look-ups made plus candidates verified
			for ; !settled; t++ {
				keys := nix * ix.StepKeys(t)
				if t >= ix.Tables() && probeCost*(spent+keys) > rows {
					break
				}
				spent += keys
				lookups += keys
				off := 0
				for _, seg := range v.segs {
					if !seg.probed() {
						continue
					}
					a := &seg.arena
					bs.probe = seg.hindex.AppendStep(bs.probe[:0], p.qsk, t, seen[off:])
					off += (seg.hindex.Rows() + 63) / 64
					now := time.Now()
					probeDur += now.Sub(at)
					at = now

					bound := min(p.maxHam, p.heap.worst())
					for i, row := range bs.probe {
						if i%scanCheckStride == 0 && sc.clk.stop() {
							break
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
					spent += len(bs.probe)
					cands += len(bs.probe)
					now = time.Now()
					verifyDur += now.Sub(at)
					at = now
				}
				settled = t >= p.maxHam || (p.heap.full() && p.heap.worst() <= t) || sc.clk.stop()
			}
			radius = max(radius, t-1)
			e.met.hixProbes.Add(nix)
			e.met.hixBaseline.Add(rows)
			if settled {
				sc.idxSegs += nix
			} else {
				e.met.hixFallback.Add(nix)
				p.heap.reset(p.heap.k)
				bs.spairs = append(bs.spairs, p)
			}
		}
		sc.scannedN += cands
		e.met.hixCandidates.Add(cands)
		e.met.hixLookups.Add(lookups)
		// The two phases alternate step by step; each span carries its phase's
		// summed time, laid end to end from the descent's start.
		for _, phase := range [...]struct {
			name string
			dur  time.Duration
		}{{StageHProbe, probeDur}, {StageHVerify, verifyDur}} {
			sc.trp.RecordShared(phase.name, ref, start, phase.dur).
				SetAttr("candidates", int64(cands)).
				SetAttr("rounds", int64(radius/ix.Tables()+1)).
				SetAttr("lookups", int64(lookups)).
				SetAttr("radius", int64(radius))
			start = start.Add(phase.dur)
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
