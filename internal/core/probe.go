package core

import (
	"slices"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

// HIndexParams configures the optional multi-table Hamming index over each
// sealed segment's arena (see internal/hindex and DESIGN.md §12).
type HIndexParams struct {
	// Enable builds an index for every segment as it is sealed or merged;
	// queries probe it whenever the cost model predicts a win, falling back
	// to the arena scan otherwise. The mutable tail is always swept.
	Enable bool
	// Tables is the substring table count m: probes answer Hamming radius
	// m−1 exactly. 0 means hindex.DefaultTables; out-of-range values are
	// clamped to the sketch width (see hindex.ClampTables).
	Tables int
	// MaxCandidateFrac is the cost model's ceiling: a probe whose estimated
	// candidate stream exceeds this fraction of the indexed rows falls back
	// to the scan (random-access verification loses to the streaming kernel
	// well before candidates approach the corpus). 0 means 0.25.
	MaxCandidateFrac float64
}

func (p HIndexParams) withDefaults() HIndexParams {
	if p.Tables <= 0 {
		p.Tables = hindex.DefaultTables
	}
	if p.MaxCandidateFrac <= 0 {
		p.MaxCandidateFrac = 0.25
	}
	return p
}

// indexDescent serves the batch's index-eligible pairs from the sealed
// segments' Hamming indexes, which answer together as one index over the
// sealed corpus: however the compactor has split it, a pair is admitted,
// probed and settled once, against all of it. Per sealed segment the descent
// runs in two phases — every probed pair streams its buckets into a sorted
// candidate run of its own, then each run is verified against its pair's
// query sketch into the pair's temp heap, which persists across segments. It
// leaves in bs.spairs the pairs the sealed segments' arena sweeps must still
// serve (cost-model and coverage fallbacks).
//
// Correctness: a pair's candidate streams are a superset of every sealed row
// within Hamming radius rEff = min(maxHam, Radius()) of its query sketch
// (pigeonhole); rows tombstoned since an index was built are still in them
// and are dropped here, as the sweep drops them on replay. The rest are
// verified with the exact Hamming distance and pushed — into the temp heap,
// so a failed probe never pollutes the pair's accumulator — under the same
// (hamming, entry) pair order as the sweep, with the acceptance bound clamped
// to rEff. Merging the temp heap is bit-identical to sweeping the sealed
// segments into the accumulator whenever the pair succeeds:
//
//   - rEff == maxHam: the streams cover the whole acceptance radius, so the
//     replay sees every sealed row the sweep would have accepted.
//   - rEff < maxHam: coverage is only guaranteed up to rEff, so the pair
//     succeeds only if its temp heap fills within it — then the sealed
//     corpus's k nearest all sit at distance ≤ worst ≤ rEff and were all in
//     the streams. Any sealed row beyond rEff is dominated by those k rows,
//     so it could not have entered the accumulator either.
//
// Cost model (a pair falls back before any verification): the estimated
// candidate stream length (exact, from bucket populations) must stay below
// MaxCandidateFrac of the indexed rows — beyond that the probe's random
// row reads lose to the sweep's streaming kernel — and, when rEff < maxHam,
// must be at least k, or the heap provably cannot fill.
//
//ferret:noalloc
func (e *Engine) indexDescent(v *view, scs []*queryScratch, bs *batchScratch, ref trace.SpanID) {
	bs.ppairs, bs.spairs = bs.ppairs[:0], bs.spairs[:0]
	nix, rows, radius := 0, 0, 0 // indexed segments, their rows, their common radius
	for _, seg := range v.segs {
		if seg.probed() {
			nix++
			rows += seg.hindex.Rows()
			radius = seg.hindex.Radius()
		}
	}
	if nix == 0 {
		return
	}
	maxCands := e.cfg.HIndex.MaxCandidateFrac * float64(rows)
	for _, p := range bs.pairs {
		est := 0
		for _, seg := range v.segs {
			if seg.probed() {
				est += seg.hindex.EstimateCandidates(p.qsk)
			}
		}
		if float64(est) > maxCands || (radius < p.maxHam && est < p.heap.k) {
			e.met.hixFallback.Add(nix)
			continue
		}
		bs.ppairs = append(bs.ppairs, p)
	}
	if len(bs.ppairs) == 0 {
		bs.spairs = append(bs.spairs, bs.pairs...)
		return
	}
	for len(bs.tmps) < len(bs.ppairs) {
		bs.tmps = append(bs.tmps, segHeap{})
	}
	verified := resizeI32(&bs.verified, len(bs.ppairs))
	for pi, p := range bs.ppairs {
		bs.tmps[pi].reset(p.heap.k)
		verified[pi] = 0
	}

	for _, seg := range v.segs {
		if !seg.probed() {
			continue
		}
		// Stream: sorted candidates verify in arena order — sparse but
		// monotone row reads instead of bucket-chain order.
		probeStart := time.Now()
		ix, a := seg.hindex, &seg.arena
		probe, pends := bs.probe[:0], bs.pends[:0]
		seen := resizeU64(&bs.seen, (a.rows()+63)/64)
		for _, p := range bs.ppairs {
			lo := len(probe)
			probe = ix.AppendCandidates(probe, p.qsk, seen)
			own := probe[lo:]
			for _, row := range own {
				seen[row>>6] &^= 1 << (uint(row) & 63)
			}
			slices.Sort(own)
			pends = append(pends, len(probe))
		}
		bs.probe, bs.pends = probe, pends
		bs.recordProbed(scs, StageHProbe, ref, probeStart)

		verifyStart := time.Now()
		lo := 0
		for pi, p := range bs.ppairs {
			own := probe[lo:pends[pi]]
			lo = pends[pi]
			sc := scs[p.req]
			tmp := &bs.tmps[pi]
			bound := min(radius, p.maxHam, tmp.worst())
			for i, row := range own {
				if i%scanCheckStride == 0 && sc.clk.stop() {
					break
				}
				li := int(a.entry[row])
				g := seg.loEntry + li
				if r := sc.opt.Restrict; seg.dead.has(li) || (r != nil && !r[v.entries[g].id]) {
					continue
				}
				if h := sketch.HammingAt(p.qsk, a.words, int(row)*a.wps); h <= bound {
					tmp.push(g, h)
					bound = min(bound, tmp.worst())
				}
			}
			verified[pi] += int32(len(own))
			e.met.hixProbes.Inc()
			e.met.hixCandidates.Add(len(own))
			e.met.hixBaseline.Add(ix.Rows())
		}
		bs.recordProbed(scs, StageHVerify, ref, verifyStart)
	}

	// Settle each pair, in pair order: full coverage of its threshold, or a
	// temp heap filled within the index radius, merges the temp heap into the
	// pair's accumulator; anything else joins the sealed segments' sweeps with
	// the accumulator untouched.
	pi := 0
	for _, p := range bs.pairs {
		if pi < len(bs.ppairs) && bs.ppairs[pi].heap == p.heap {
			tmp := &bs.tmps[pi]
			pi++
			if radius >= p.maxHam || tmp.full() {
				for i := range tmp.entry {
					p.heap.push(tmp.entry[i], tmp.ham[i])
				}
				scs[p.req].idxSegs += nix
				scs[p.req].scannedN += int(verified[pi-1])
				continue
			}
			e.met.hixFallback.Add(nix)
		}
		bs.spairs = append(bs.spairs, p)
	}
}

// recordProbed records one phase of a descent (bucket streaming or
// verification, started at start and ending now) in the trace of every
// request that had a pair probed. ppairs is grouped by request.
//
//ferret:noalloc
func (bs *batchScratch) recordProbed(scs []*queryScratch, name string, ref trace.SpanID, start time.Time) {
	dur := time.Since(start)
	last := -1
	for _, p := range bs.ppairs {
		if p.req != last {
			last = p.req
			scs[last].trp.RecordShared(name, ref, start, dur).
				SetAttr("pairs", int64(len(bs.ppairs))).
				SetAttr("candidates", int64(len(bs.probe)))
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
