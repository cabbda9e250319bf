package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	rtrace "runtime/trace"
	"slices"
	"sync"
	"time"

	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

// queryReq is one query riding through the pipeline: its inputs, the trace
// buffer it records into, and its outcome.
type queryReq struct {
	ctx context.Context
	// q is the query object; hasQ reports that the engine can rank it by
	// feature vectors — false in a sketch-only store, whose queries rank by
	// the sketches in qset (a by-ID query's are the stored ones).
	q     object.Object
	hasQ  bool
	qset  *metastore.SketchSet
	opt   QueryOptions
	start time.Time // pipeline entry, for ferret_query_seconds

	// trp points at the query's active trace recording buffer — the
	// scratch's own, or the caller-supplied one from QueryOptions.Trace. nil
	// (or a disarmed target) makes every recording call a no-op, so the
	// filter path stays allocation-free either way.
	trp *trace.Active

	ans Answer
	err error
}

// queryScratch is one query's pooled pipeline state: the request itself and
// the filtering and ranking units' scratch — segment ordering, candidate
// lists, bounded heaps and lower-bound tables — so a single query allocates
// no request record, channel or closure, and repeated queries allocate
// nothing on the filter path (verified by TestFilterPathAllocs).
type queryScratch struct {
	queryReq // cleared by putScratch: pooled scratch never pins caller memory

	order []int      // query segments by descending weight
	cands []int      // candidate entry indices (union over query segments)
	heaps []*segHeap // one k-nearest heap per selected query segment

	// Filter-mode accounting for the answer's mode=index|scan flag: (query
	// segment × storage segment) units served by a Hamming-index descent vs.
	// by an arena sweep. scannedN counts the objects those units visited.
	idxSegs, scanSegs, scannedN int
	// walk: the request's Restrict set is selective enough that its arena
	// scans walk entries instead of sweeping rows (set by buildPairs).
	walk bool

	// Filter buffers: the query-segment pairs, their sketches packed for the
	// multi-sketch kernel, the per-pair bounds and hit blocks.
	pairs  []scanPair
	ms     sketch.MultiSketch // packed sketches: the swept pairs' in filter, all the query's in rank
	qsks   []sketch.Sketch    // ms's input
	bounds []int32
	ns     []int32
	idx    []int32
	dist   []int32

	seen   []uint64    // the candidate union, one bit per entry
	spairs []scanPair  // pairs left for the indexed segments' arena sweeps
	kept   []scoredIdx // filterExact's nearest entries to the query segment at hand

	// Ranking-unit scratch (sketch lower-bound pruning, the walk's outcomes).
	lbs    []lbCand
	qw     []float64
	outs   []walkSlot
	keys   []uint64            // pairBounds' (estimate class, entry) keys
	segs   []object.Segment    // Engine.object's buffer on the calling goroutine
	qsegs  []object.Segment    // a by-ID query's segments, viewed over its stored record
	stored metastore.SketchSet // a by-ID query's sketches, viewed over its arena rows
	built  metastore.SketchSet // an object query's sketches, built into bwords
	bwords []uint64

	// The stage being shared with idle helpers and its workers' buffers.
	fan     fanout
	workers []fanWorker

	// clk is the query's cancellation/budget clock, pooled here so arming
	// it never allocates.
	clk queryClock

	// own is the engine-armed trace buffer for queries whose caller did not
	// supply one. Pooled by value with the scratch: arming it never
	// allocates.
	own trace.Active

	// Ranking-unit statistics for the rank trace span, reset and read by
	// rankStage and written where the rank metrics are published.
	rankEvals, rankPruned, rankAbandoned, rankWorkers int
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	// Brute-force queries run no filter, exact-distance ones build no pairs:
	// a reused scratch must not leak the previous query's counts or pairs.
	sc.idxSegs, sc.scanSegs, sc.scannedN = 0, 0, 0
	sc.pairs = sc.pairs[:0]
	return sc
}

func putScratch(sc *queryScratch) {
	sc.queryReq = queryReq{}
	scratchPool.Put(sc)
}

// heap returns the i-th pooled segment heap reset to capacity k and
// distances 0…n.
func (sc *queryScratch) heap(i, k, n int) *segHeap {
	for len(sc.heaps) <= i {
		sc.heaps = append(sc.heaps, new(segHeap))
	}
	sc.heaps[i].reset(k, n)
	return sc.heaps[i]
}

// settle records the request's outcome once its last stage has run: the
// context's error if it was cancelled on the way, the answer otherwise.
func (sc *queryScratch) settle(results []Result, degraded bool) {
	if sc.clk.stop() {
		sc.err = sc.clk.err()
		return
	}
	sc.ans = Answer{Results: results, Degraded: degraded, FilterMode: sc.filterMode()}
}

// batchRows is the arena sweep's block size: big enough to amortize the
// select kernel call, small enough that the k-nearest bound re-tightens
// frequently and the hit buffers stay in L1.
const batchRows = 512

// restrictWalkDiv: a Restrict set smaller than 1/restrictWalkDiv of the
// corpus makes the arena scan walk entries instead of sweeping rows. On
// BenchmarkFilterRestrict's corpus the two cost the same at a quarter; the
// walk is 14× faster at ten allowed objects, the sweep 1.7× at half.
const restrictWalkDiv = 4

// resize grows (or shrinks) a pooled slice to length n; grown contents are
// zero, reused ones are stale, so callers clear what they read first.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// scanPair is one query-segment unit of the filter: the segment's sketch,
// the pair's acceptance threshold and its private k-nearest heap.
type scanPair struct {
	qsk    sketch.Sketch
	maxHam int
	heap   *segHeap
	swept  bool // the sealed segments' sweeps still owe the pair its heap (indexDescent)
}

// filterParams resolves a query's filter parameters: its own when any field
// is set, the engine's otherwise.
func (e *Engine) filterParams(opt *QueryOptions) FilterParams {
	if opt.Filter == (FilterParams{}) {
		return e.cfg.Filter
	}
	return opt.Filter
}

// topSegments orders a query's segments by descending weight into buf and
// returns the r heaviest. The sort is stable: equal weights keep segment
// order, so every filter path picks the same segments.
func topSegments(buf []int, weights []float32, r int) []int {
	order := buf[:0]
	for i := range weights {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	return order[:r]
}

// buildPairs expands a query into its pair list: the r highest-weight query
// segments, each with its weight-tightened Hamming threshold and a private
// k-nearest heap.
func (e *Engine) buildPairs(v *view, sc *queryScratch) {
	n := e.builder.N()
	sc.pairs = sc.pairs[:0]
	sc.walk = sc.opt.Restrict != nil && len(sc.opt.Restrict)*restrictWalkDiv < len(v.entries)
	p := e.filterParams(&sc.opt).withDefaults(len(sc.qset.Sketches), sc.opt.K)
	sc.order = topSegments(sc.order, sc.qset.Weights, p.QuerySegments)
	for j, qi := range sc.order {
		frac := p.MaxHammingFrac * (1 - p.WeightTighten*float64(sc.qset.Weights[qi]))
		sc.pairs = append(sc.pairs, scanPair{
			qsk:    sc.qset.Sketches[qi],
			maxHam: int(frac * float64(n)),
			heap:   sc.heap(j, p.NearestPerSegment, n),
		})
	}
}

// filter is the filtering unit (paper §4.1.1): for each of the query's r
// highest-weight segments it keeps the k nearest dataset segment sketches
// within a weight-dependent Hamming threshold, and the deduplicated union of
// the owning objects is the query's candidate set (sorted entry indices in
// sc.cands).
//
// It descends the view's storage segments once. Every pair first goes
// through the sealed segments' Hamming indexes (indexDescent); every
// segment's arena is then swept once for the pairs still owed it — all of
// them on the unindexed tail, the descent's fallbacks (it had cost as much
// as the sweep would) on a sealed segment. Every push applies the global
// (hamming, entry) pair order, so a pair's heap ends up holding its k
// smallest pairs no matter how the corpus is segmented or which machinery
// served it.
func (e *Engine) filter(v *view, sc *queryScratch) {
	stageStart := time.Now()
	defer rtrace.StartRegion(sc.ctx, "ferret.scan").End()
	e.buildPairs(v, sc)
	workers := e.indexDescent(v, sc)
	swept := 0
	for _, seg := range v.segs {
		if seg.liveEntries() == 0 {
			continue
		}
		pairs := sc.pairs
		if seg.probed() {
			pairs = sc.spairs
		}
		if len(pairs) > 0 {
			swept += e.arenaSweep(v, seg, sc, pairs)
		}
	}

	// Dedup the candidate union in a bitmap over the entries: one ranking
	// evaluation per distinct object, no matter how many query segments (or
	// index buckets) reached it, in ascending entry order.
	union := resize(&sc.seen, (len(v.entries)+63)/64)
	clear(union)
	for _, p := range sc.pairs {
		for _, key := range p.heap.items() {
			union[uint32(key)/64] |= 1 << (key % 64)
		}
	}
	cands := sc.cands[:0]
	for w, x := range union {
		for ; x != 0; x &= x - 1 {
			cands = append(cands, w*64+bits.TrailingZeros64(x))
		}
	}
	sc.cands = cands
	dur := time.Since(stageStart)
	e.met.scanned.Add(sc.scannedN)
	e.met.candidates.Add(len(sc.cands))
	e.met.stageFilter.Observe(dur.Seconds())
	sc.trp.Record(StageFilter, stageStart, dur).
		SetAttr("scanned", int64(sc.scannedN)).
		SetAttr("swept_rows", int64(swept)).
		SetAttr("candidates", int64(len(sc.cands))).
		SetAttr("workers", int64(workers))
}

// arenaSweep streams one storage segment's arena once for the given pairs
// and returns the rows it scored.
// Blocks of rows go through the fused multi-sketch select kernel under each
// pair's block-entry bound; the (few) selected rows then replay the exact
// push/tighten logic, skipping tombstoned and Restrict-excluded entries, so
// each pair's heap ends up identical to a row-by-row scan of the live,
// unrestricted rows while misses never leave the kernel.
//
// A query under a selective Restrict set (sc.walk) walks the segment's
// entries instead: one set lookup per entry and Hamming distances for the
// allowed ones only. Its few allowed objects never fill the heaps, so the
// sweep's bound would stay at the threshold and about half of every block
// would be selected and looked up.
//
//ferret:noalloc
func (e *Engine) arenaSweep(v *view, seg *segment, sc *queryScratch, pairs []scanPair) (swept int) {
	a := &seg.arena
	np := len(pairs)
	restrict := sc.opt.Restrict
	sc.scanSegs += np
	if sc.walk {
		for li := 0; li < seg.n; li++ {
			if li%scanCheckStride == 0 && sc.clk.stop() {
				break
			}
			g := seg.loEntry + li
			if seg.dead.has(li) || !restrict[v.entries[g].id] {
				continue
			}
			sc.scannedN += np
			rlo, rhi := a.rowsOf(li)
			swept += rhi - rlo
			for pi := range pairs {
				p := &pairs[pi]
				bound := min(p.maxHam, p.heap.worst())
				for row := rlo; row < rhi; row++ {
					if h := sketch.HammingAt(p.qsk, a.words, row*a.wps); h <= bound {
						p.heap.push(g, h)
						bound = min(bound, p.heap.worst())
					}
				}
			}
		}
		return swept
	}
	sc.scannedN += np * seg.liveEntries()

	bounds := resize(&sc.bounds, np)
	ns := resize(&sc.ns, np)
	idx := resize(&sc.idx, np*batchRows)
	dist := resize(&sc.dist, np*batchRows)
	sc.qsks = sc.qsks[:0]
	for _, p := range pairs {
		sc.qsks = append(sc.qsks, p.qsk)
	}
	sc.ms.Reset(sc.qsks)
	check := seg.deleted > 0 || restrict != nil
	rows := a.rows()
	for base := 0; base < rows; base += batchRows {
		// Cancellation is checked once per block.
		if sc.clk.stop() {
			return base
		}
		nb := min(batchRows, rows-base)
		for pi := range pairs {
			p := &pairs[pi]
			bounds[pi] = int32(min(p.maxHam, p.heap.worst()))
		}
		// The kernel prefilters with the block-entry bound, ties included —
		// a row at the worst kept distance can still enter by winning the
		// (hamming, entry) tie-break in push. The bound only tightens
		// mid-block, so the selected rows are a superset of the acceptable
		// ones and the replay below decides exactly as a row-by-row scan
		// would.
		sketch.HammingSelectMulti(&sc.ms, a.words, base*a.wps, nb, bounds, idx, dist, batchRows, ns)
		for pi := range pairs {
			p := &pairs[pi]
			bound := bounds[pi]
			hits, ds := idx[pi*batchRows:], dist[pi*batchRows:]
			for k := 0; k < int(ns[pi]); k++ {
				h := ds[k]
				if h > bound {
					continue
				}
				li := int(a.entry[base+int(hits[k])])
				g := seg.loEntry + li
				if check && (seg.dead.has(li) || (restrict != nil && !restrict[v.entries[g].id])) {
					continue
				}
				p.heap.push(g, int(h))
				if w := p.heap.worst(); w < int(bound) {
					bound = int32(w)
				}
			}
		}
	}
	return rows
}

// filterExact is the filtering unit's exact path: the user-supplied segment
// distance function is computed directly against all feature-vector
// metadata (paper §4.1.1's alternative to the sketch comparison). It leaves
// the candidate set in sc.cands or the failure in sc.err.
func (e *Engine) filterExact(v *view, sc *queryScratch, p FilterParams) {
	if !sc.hasQ {
		sc.err = errors.New("core: exact-distance filtering requires stored feature vectors")
		return
	}
	stageStart := time.Now()
	q, opt := &sc.q, &sc.opt
	scanned := 0
	sc.order = topSegments(sc.order, sc.qset.Weights, p.QuerySegments)
	cands := sc.cands[:0]
	for _, qi := range sc.order {
		qvec := q.Segments[qi].Vec
		kept := sc.kept[:0]
		worst := math.Inf(1)
		for idx := range v.entries {
			if idx%rankCheckStride == 0 && sc.clk.stop() {
				break
			}
			if v.isDead(idx) || (opt.Restrict != nil && !opt.Restrict[v.entries[idx].id]) {
				continue
			}
			o := e.object(v, idx, &sc.segs)
			scanned++
			best := math.Inf(1)
			for si := range o.Segments {
				if d := e.segDist(qvec, o.Segments[si].Vec); d < best {
					best = d
				}
			}
			if len(kept) >= p.NearestPerSegment && best >= worst {
				continue
			}
			kept = append(kept, scoredIdx{idx, best})
			if len(kept) > 4*p.NearestPerSegment {
				kept = trimScored(kept, p.NearestPerSegment)
				worst = kept[len(kept)-1].dist
			}
		}
		for _, s := range trimScored(kept, p.NearestPerSegment) {
			cands = append(cands, s.idx)
		}
		sc.kept = kept
	}
	slices.Sort(cands)
	sc.cands = slices.Compact(cands)
	sc.scanSegs++
	e.met.scanned.Add(scanned)
	e.met.candidates.Add(len(sc.cands))
	e.met.stageExact.ObserveSince(stageStart)
	sc.trp.Record(StageExactFilter, stageStart, time.Since(stageStart)).
		SetAttr("candidates", int64(len(sc.cands)))
}

// scoredIdx pairs an entry index with an exact segment distance.
type scoredIdx struct {
	idx  int
	dist float64
}

// trimScored keeps the k smallest entries under the (distance, entry) order
// of the sketch path, ascending: which of several equally distant entries
// survive the cut does not depend on when the trims happen.
func trimScored(s []scoredIdx, k int) []scoredIdx {
	slices.SortFunc(s, func(a, b scoredIdx) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.idx, b.idx))
	})
	return s[:min(len(s), k)]
}
