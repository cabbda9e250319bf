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
	answers := make([]Answer, len(queries))
	errs := make([]error, len(queries))
	opt.Trace = nil
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
			answers[i], errs[i] = e.Search(ctx, queries[i], opt)
		}
	}
	var wg sync.WaitGroup
	for range min(len(queries), runtime.GOMAXPROCS(0)) - 1 {
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
