package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ferret/internal/object"
)

// SearchBatch runs several queries, each as an ordinary Search call — result
// cache, budget, cancellation and degraded answers included — spread over
// min(len(queries), GOMAXPROCS) goroutines, the caller's among them, that
// take query indices from one counter. It returns one Answer and one error
// slot per query, parallel to queries. Each query records into its own
// engine-armed trace: opt.Trace is ignored, since one caller buffer cannot
// serve N queries.
func (e *Engine) SearchBatch(ctx context.Context, queries []object.Object, opt QueryOptions) ([]Answer, []error) {
	opt.Trace = nil
	return runBatch(len(queries), func(i int) (Answer, error) { return e.Search(ctx, queries[i], opt) })
}

// SearchBatchByID is SearchBatch for stored objects: each ID runs as an
// ordinary SearchByID call, so a batched query shares its result-cache
// entry with the same query asked alone.
func (e *Engine) SearchBatchByID(ctx context.Context, ids []object.ID, opt QueryOptions) ([]Answer, []error) {
	opt.Trace = nil
	return runBatch(len(ids), func(i int) (Answer, error) { return e.SearchByID(ctx, ids[i], opt) })
}

// runBatch answers queries 0..n-1 with search on up to GOMAXPROCS
// goroutines, the caller's among them.
func runBatch(n int, search func(i int) (Answer, error)) ([]Answer, []error) {
	answers := make([]Answer, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			answers[i], errs[i] = search(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return answers, errs
}
