package core

import (
	"slices"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

// HIndexParams configures the optional multi-table Hamming index over the
// sketch arena (see internal/hindex and DESIGN.md §12).
type HIndexParams struct {
	// Enable builds and maintains the index; queries probe it whenever the
	// cost model predicts a win, falling back to the arena scan otherwise.
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

// indexDescent serves one storage segment's index-eligible pairs from its
// multi-table Hamming index instead of its arena sweep, in two phases: every
// eligible pair streams its buckets into a sorted candidate list of its own,
// then each list is verified against its pair's query sketch. It returns the
// pairs the segment's arena sweep must still serve (cost-model and coverage
// fallbacks). Caller holds the read lock.
//
// Correctness: a pair's candidate stream is a superset of every segment row
// within Hamming radius rEff = min(maxHam, Radius()) of its query sketch
// (pigeonhole). Candidates are verified with the exact Hamming distance and
// pushed — into a temp heap, so a failed probe never pollutes the pair's
// accumulator — under the same (hamming, entry) pair order as the sweep,
// with the acceptance bound clamped to rEff. Merging the temp heap is
// bit-identical to sweeping the segment into the accumulator whenever the
// pair succeeds:
//
//   - rEff == maxHam: the stream covers the whole acceptance radius, so the
//     replay sees every segment row the sweep would have accepted.
//   - rEff < maxHam: coverage is only guaranteed up to rEff, so the pair
//     succeeds only if its temp heap fills within it — then the segment's k
//     nearest all sit at distance ≤ worst ≤ rEff and were all in the
//     stream. Any segment row beyond rEff is dominated by those k rows, so
//     it could not have entered the accumulator either.
//
// Cost model (a pair falls back before any verification): the estimated
// candidate stream length (exact, from bucket populations) must stay below
// MaxCandidateFrac of the indexed rows — beyond that the probe's random
// row reads lose to the sweep's streaming kernel — and, when rEff < maxHam,
// must be at least k, or the heap provably cannot fill.
//
//ferret:noalloc
func (e *Engine) indexDescent(seg *segment, scs []*queryScratch, bs *batchScratch, ref trace.SpanID) []scanPair {
	ix := seg.hindex
	rows := ix.Rows()
	radius := ix.Radius()
	maxCands := e.cfg.HIndex.MaxCandidateFrac * float64(rows)
	bs.ppairs, bs.spairs, bs.pends = bs.ppairs[:0], bs.spairs[:0], bs.pends[:0]
	probe := bs.probe[:0]
	seen := resizeU64(&bs.seen, (seg.arena.rows()+63)/64)

	probeStart := time.Now()
	for _, p := range bs.pairs {
		est := ix.EstimateCandidates(p.qsk)
		if float64(est) > maxCands || (radius < p.maxHam && est < p.heap.k) {
			e.met.hixFallback.Inc()
			bs.spairs = append(bs.spairs, p)
			continue
		}
		lo := len(probe)
		probe = ix.AppendCandidates(probe, p.qsk, seen)
		own := probe[lo:]
		for _, row := range own {
			seen[row>>6] &^= 1 << (uint(row) & 63)
		}
		// Sorted candidates verify in arena order — sparse but monotone row
		// reads instead of bucket-chain order.
		slices.Sort(own)
		bs.ppairs = append(bs.ppairs, p)
		bs.pends = append(bs.pends, len(probe))
	}
	bs.probe = probe
	if len(bs.ppairs) == 0 {
		return bs.spairs
	}
	bs.recordProbed(scs, StageHProbe, ref, probeStart)

	// Verify each pair's candidates, then settle the pair: full coverage of
	// its threshold, or a temp heap filled within the index radius, merges
	// the temp heap into the pair's accumulator; anything else rejoins the
	// segment's sweep with the accumulator untouched.
	verifyStart := time.Now()
	a := seg.arena
	lo := 0
	for pi, p := range bs.ppairs {
		own := probe[lo:bs.pends[pi]]
		lo = bs.pends[pi]
		sc := scs[p.req]
		tmp := &bs.tmp
		tmp.reset(p.heap.k)
		bound := min(radius, p.maxHam)
		for i, row := range own {
			if i%scanCheckStride == 0 && sc.clk.stop() {
				break
			}
			g := seg.loEntry + int(a.entry[row])
			// Deleted rows never appear (Delete removes them from the
			// index); only a Restrict set can exclude a candidate.
			if r := sc.opt.Restrict; r != nil && !r[e.entries[g].id] {
				continue
			}
			if h := sketch.HammingAt(p.qsk, a.words, int(row)*a.wps); h <= bound {
				tmp.push(g, h)
				bound = min(bound, tmp.worst())
			}
		}
		e.met.hixProbes.Inc()
		e.met.hixCandidates.Add(len(own))
		e.met.hixBaseline.Add(rows)
		if radius < p.maxHam && !tmp.full() {
			e.met.hixFallback.Inc()
			bs.spairs = append(bs.spairs, p)
			continue
		}
		for i := range tmp.entry {
			p.heap.push(tmp.entry[i], tmp.ham[i])
		}
		sc.idxSegs++
		sc.scannedN += len(own)
	}
	bs.recordProbed(scs, StageHVerify, ref, verifyStart)
	return bs.spairs
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
