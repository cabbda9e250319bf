package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"ferret/internal/object"
)

// The shared-scan query scheduler. Every search is a batch (see runBatch);
// left alone, each concurrent query is a batch of one and streams the arena
// privately, so N in-flight queries cost N full passes. The scheduler
// coalesces batchable Search calls into larger batches: one filter pass
// serves every (query, query-segment) pair, then the per-query ranking
// stages fan out to the persistent worker pool. Every query keeps its own
// clock, budget, and degraded-answer semantics, and its answer is identical
// to the one it would have got alone.

// ErrEngineClosed is returned for queries still queued in the scheduler when
// the engine shuts down, and for new queries submitted after Close.
var ErrEngineClosed = errors.New("core: engine closed")

// SchedulerParams configures the shared-scan query scheduler.
type SchedulerParams struct {
	// Window is the coalescing window: an eligible Search call waits up to
	// this long for companion queries before its batch launches. 0 disables
	// coalescing entirely (SearchBatch still batches explicitly). Under
	// saturation the window rarely limits anything — queries that arrive
	// while a batch runs are picked up the instant the dispatcher frees up.
	Window time.Duration
	// MaxBatch caps the queries per shared scan; 0 means 8. Bigger batches
	// amortize the arena pass further but grow per-batch latency and the
	// select kernel's working set.
	MaxBatch int
}

func (p SchedulerParams) maxBatch() int {
	if p.MaxBatch <= 0 {
		return 8
	}
	return p.MaxBatch
}

// scheduler owns the coalescing queue and its dispatcher goroutine. The
// submitted/received accounting (under mu) lets close guarantee that every
// request that passed the closed-check is either answered by a batch or
// failed with ErrEngineClosed — no goroutine is ever left waiting on done.
type scheduler struct {
	e      *Engine
	window time.Duration
	max    int

	reqs  chan *queryScratch
	stopc chan struct{}
	donec chan struct{}
	once  sync.Once
	batch []*queryScratch // dispatcher-owned collect buffer

	mu        sync.Mutex
	closed    bool
	submitted int
	received  int
}

func newScheduler(e *Engine, p SchedulerParams) *scheduler {
	s := &scheduler{
		e:      e,
		window: p.Window,
		max:    p.maxBatch(),
		// Room for a few full batches to queue while one runs, so arrivals
		// during a batch coalesce into the next instead of blocking.
		reqs:  make(chan *queryScratch, 4*p.maxBatch()),
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
	go s.run()
	return s
}

// do is the coalesced Search path: enqueue the request and wait for the
// dispatcher to hand it back, answered by a batch or failed with
// ErrEngineClosed.
func (s *scheduler) do(sc *queryScratch) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sc.err = ErrEngineClosed
		return
	}
	s.submitted++
	s.mu.Unlock()
	if sc.done == nil {
		sc.done = make(chan struct{}, 1)
	}
	sc.enq = time.Now()
	//lint:ignore poolescape ownership passes to the dispatcher, which hands the scratch back through done before the caller's putScratch
	s.reqs <- sc
	<-sc.done
}

// note records one queue receive; the dispatcher calls it for every request
// it takes off the channel.
func (s *scheduler) note() {
	s.mu.Lock()
	s.received++
	s.mu.Unlock()
}

func (s *scheduler) run() {
	defer close(s.donec)
	for {
		select {
		case sc := <-s.reqs:
			s.note()
			batch := s.collect(sc)
			s.e.launch(batch)
			// A request is its waiter's again the moment done is signalled.
			for _, sc := range batch {
				sc.done <- struct{}{}
			}
		case <-s.stopc:
			s.drain()
			return
		}
	}
}

// collect grows a batch around its first request: everything already queued
// joins for free, then the coalescing window keeps the door open for
// stragglers until the batch is full, the window expires, or the scheduler
// stops.
func (s *scheduler) collect(first *queryScratch) []*queryScratch {
	batch := append(s.batch[:0], first)
	for len(batch) < s.max {
		select {
		case sc := <-s.reqs:
			s.note()
			batch = append(batch, sc)
			continue
		default:
		}
		break
	}
	if len(batch) < s.max && s.window > 0 {
		timer := time.NewTimer(s.window)
	wait:
		for len(batch) < s.max {
			select {
			case sc := <-s.reqs:
				s.note()
				batch = append(batch, sc)
			case <-timer.C:
				break wait
			case <-s.stopc:
				break wait
			}
		}
		timer.Stop()
	}
	s.batch = batch
	return batch
}

// drain fails every request still queued (or mid-submit) with
// ErrEngineClosed. It runs after stopc closes, so no new submits can pass
// the closed-check; once received catches up to submitted the queue is
// provably empty.
func (s *scheduler) drain() {
	for {
		s.mu.Lock()
		done := s.received == s.submitted
		s.mu.Unlock()
		if done {
			return
		}
		sc := <-s.reqs
		s.note()
		sc.err = ErrEngineClosed
		sc.done <- struct{}{}
	}
}

// close rejects new submissions, stops the dispatcher, and waits until every
// queued request has been answered or failed.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.once.Do(func() { close(s.stopc) })
	<-s.donec
}

// batchable reports whether a query may share a batch with others: plain
// Filtering-mode queries with no exact-distance filtering (a different
// algorithm) and no Restrict set (its entry walk or per-hit lookups would
// hold up every query riding the same pass). Everything else runs as a batch
// of one.
func (e *Engine) batchable(opt *QueryOptions) bool {
	return opt.Mode == Filtering && opt.Restrict == nil && !e.filterParams(opt).ExactDistance
}

// launch accounts one scheduled batch — its size and every request's queue
// wait — and runs it.
func (e *Engine) launch(scs []*queryScratch) {
	e.met.batches.Inc()
	e.met.batchSize.Observe(float64(len(scs)))
	now := time.Now()
	for _, sc := range scs {
		e.met.queueWait.Observe(now.Sub(sc.enq).Seconds())
		sc.trp.Record(StageQueue, sc.enq, now.Sub(sc.enq)).
			SetAttr("batch", int64(len(scs)))
	}
	if len(scs) > 1 {
		e.met.coalesced.Add(len(scs))
	}
	e.runBatch(scs)
}

// SearchBatch runs several queries as one explicitly-batched unit: one
// shared filter pass per MaxBatch-sized group, with per-query ranking fanned
// out to the worker pool. It returns one Answer and one error slot per
// query, parallel to queries. Queries that cannot share a batch (see
// batchable) fall back to one Search call each. Results are identical to
// separate Search calls.
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
	for lo, max := 0, e.cfg.Scheduler.maxBatch(); lo < len(scs); lo += max {
		e.launch(scs[lo:min(lo+max, len(scs))])
	}
	for i, sc := range scs {
		answers[slots[i]], errs[slots[i]] = e.finish(sc)
		putScratch(sc)
	}
	return answers, errs
}
