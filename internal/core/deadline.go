package core

import (
	"context"
	"sync/atomic"
	"time"
)

// queryClock carries one query's cancellation and time-budget state through
// the pipeline. The two signals have different strengths:
//
//   - Context cancellation is a hard abort: scan and rank loops check it
//     periodically and the query returns the context's error.
//   - Budget expiry is soft: the filtering stage always runs to completion
//     (it is cheap relative to ranking and its output is what degradation
//     falls back on), and the ranking stage stops early, returning the best
//     results ranked so far with the remainder filled in sketch-distance
//     order and Answer.Degraded set.
//
// Both signals latch atomically, so reading a clock from another goroutine
// stays race-free, and "degraded" reflects only expiry observed by a rank
// loop: a budget that runs out after the last evaluation does not taint a
// complete answer.
type queryClock struct {
	ctx context.Context
	// deadline is the budget expiry instant; zero means no budget.
	deadline time.Time
	// expired latches budget expiry once a rank loop observes it.
	expired atomic.Bool
	// cancelled latches context cancellation once any loop observes it.
	cancelled atomic.Bool
}

// reset re-arms a (pooled) clock for one query.
func (c *queryClock) reset(ctx context.Context, budget time.Duration) {
	c.ctx = ctx
	if budget > 0 {
		c.deadline = time.Now().Add(budget)
	} else {
		c.deadline = time.Time{}
	}
	c.expired.Store(false)
	c.cancelled.Store(false)
}

// stop reports whether the query's context has been cancelled; loops call
// it at block granularity and halt when it fires.
func (c *queryClock) stop() bool {
	if c.cancelled.Load() {
		return true
	}
	if c.ctx != nil && c.ctx.Err() != nil {
		c.cancelled.Store(true)
		return true
	}
	return false
}

// err returns the context's error (after stop has fired).
func (c *queryClock) err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// overBudget reports (and latches) expiry of the per-query time budget.
// Only rank loops consult it; a latched true is what marks the answer
// degraded.
func (c *queryClock) overBudget() bool {
	if c.deadline.IsZero() {
		return false
	}
	if c.expired.Load() {
		return true
	}
	if !time.Now().Before(c.deadline) {
		c.expired.Store(true)
		return true
	}
	return false
}

// budgetHit reports whether a rank loop has observed budget expiry, without
// consulting the wall clock.
func (c *queryClock) budgetHit() bool { return c.expired.Load() }

// Loop strides for the periodic checks: cheap enough to keep overhead
// invisible, frequent enough that cancellation latency stays in the tens of
// microseconds even on sketch-only scans.
const (
	// scanCheckStride is how many candidate rows an index descent verifies
	// between clock checks; the arena sweep checks once per batchRows block
	// instead.
	scanCheckStride = 256
	// rankCheckStride is how many brute-force rank evaluations run between
	// clock checks. Filtering-mode ranking checks every evaluation: each
	// one is a full EMD solve.
	rankCheckStride = 64
)
