package core

import (
	"context"
	"time"

	"ferret/internal/object"
)

// batchGroup caps the queries per shared filter pass of SearchBatch (Search
// runs a batch of one on its caller's goroutine). Bigger groups amortize the
// arena pass further but grow per-group latency and the select kernel's
// working set.
const batchGroup = 8

// batchable reports whether a query may share a batch with others: plain
// Filtering-mode queries with no exact-distance filtering (a different
// algorithm) and no Restrict set (its entry walk or per-hit lookups would
// hold up every query riding the same pass). Everything else runs as a batch
// of one.
func (e *Engine) batchable(opt *QueryOptions) bool {
	return opt.Mode == Filtering && opt.Restrict == nil && !e.filterParams(opt).ExactDistance
}

// launch accounts one group of a SearchBatch call — its size and every
// request's wait behind the call's earlier groups — and runs it.
func (e *Engine) launch(scs []*queryScratch) {
	e.met.batches.Inc()
	e.met.batchSize.Observe(float64(len(scs)))
	now := time.Now()
	for _, sc := range scs {
		e.met.queueWait.Observe(now.Sub(sc.enq).Seconds())
		sc.trp.Record(StageQueue, sc.enq, now.Sub(sc.enq)).
			SetAttr("batch", int64(len(scs)))
	}
	e.runBatch(scs)
}

// SearchBatch runs several queries as one explicitly-batched unit: one
// shared filter pass per group of up to batchGroup queries, with per-query
// ranking fanned out to the worker pool. It returns one Answer and one error
// slot per query, parallel to queries. Queries that cannot share a batch
// (see batchable) fall back to one Search call each. Every query keeps its
// own clock, budget and degraded-answer semantics, and its results are
// identical to a separate Search call's.
func (e *Engine) SearchBatch(ctx context.Context, queries []object.Object, opt QueryOptions) ([]Answer, []error) {
	answers := make([]Answer, len(queries))
	errs := make([]error, len(queries))
	if opt.K <= 0 {
		opt.K = 10
	}
	if !e.batchable(&opt) {
		for i := range queries {
			answers[i], errs[i] = e.Search(ctx, queries[i], opt)
		}
		return answers, errs
	}
	// Each batch query records into its own engine-armed trace (one shared
	// QueryOptions.Trace buffer cannot serve N queries).
	opt.Trace = nil
	scs := make([]*queryScratch, 0, len(queries))
	slots := make([]int, 0, len(queries))
	for i := range queries {
		if errs[i] = e.checkQuery(&queries[i]); errs[i] != nil {
			e.met.queryErrors.Inc()
			continue
		}
		sc := getScratch()
		e.begin(ctx, sc, &queries[i], nil, opt)
		sc.enq = time.Now()
		scs = append(scs, sc)
		slots = append(slots, i)
	}
	e.met.inflight.Add(int64(len(scs)))
	defer e.met.inflight.Add(-int64(len(scs)))
	for lo := 0; lo < len(scs); lo += batchGroup {
		e.launch(scs[lo:min(lo+batchGroup, len(scs))])
	}
	for i, sc := range scs {
		answers[slots[i]], errs[slots[i]] = e.finish(sc)
		putScratch(sc)
	}
	return answers, errs
}
