package core

import "sync"

// workerPool is the engine's persistent rank worker pool: a batch of several
// queries fans its per-query rank stages out to it (see rankFanOut). Workers
// are started once at Open and stay alive until Close, so fan-out costs one
// channel send instead of a goroutine creation, and the pool-utilization
// gauge shows saturation directly.
//
// The tasks channel is unbuffered, so a dispatch succeeds only when a worker
// is free to take the task right now; otherwise the caller runs the task
// inline. That makes dispatch non-blocking and the pool impossible to
// deadlock — fan-out simply degrades to inline execution when every worker
// is busy — and it means closing the pool never strands a task: after close
// no worker receives, so every dispatch falls back to the caller.
type workerPool struct {
	tasks chan func()
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
	met   *engineMetrics
}

func newWorkerPool(size int, met *engineMetrics) *workerPool {
	p := &workerPool{
		tasks: make(chan func()),
		stop:  make(chan struct{}),
		met:   met,
	}
	met.poolWorkers.Set(int64(size))
	for i := 0; i < size; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case fn := <-p.tasks:
			p.met.poolBusy.Add(1)
			fn()
			p.met.poolBusy.Add(-1)
		case <-p.stop:
			return
		}
	}
}

// dispatch hands fn to a free worker, reporting false when none is available
// (or the pool is closed); the caller then runs fn itself. fn must complete
// the caller's own synchronization (e.g. a WaitGroup) — the pool does not
// track task completion.
func (p *workerPool) dispatch(fn func()) bool {
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// close stops the workers and waits for any in-flight task to finish.
// Dispatch stays safe to call after close; it just always reports false.
func (p *workerPool) close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.met.poolWorkers.Set(0)
}
