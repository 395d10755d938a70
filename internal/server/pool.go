package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrOverloaded is returned when the simulation queue is full: the caller
// should shed the request with 429 + Retry-After instead of queueing
// without bound.
var ErrOverloaded = errors.New("server: overloaded: simulation queue is full")

// ErrShuttingDown is returned for work submitted after drain began.
var ErrShuttingDown = errors.New("server: shutting down")

// workerPool runs expensive jobs (simulations) on a fixed number of
// workers behind a bounded queue. Submissions beyond workers+queue are
// rejected immediately — load shedding, not convoying.
type workerPool struct {
	mu     sync.RWMutex
	closed bool  // guarded by mu
	limit  int64 // max accepted jobs: workers running + queueDepth waiting
	jobs   chan *poolJob
	wg     sync.WaitGroup
	queued atomic.Int64 // jobs accepted but not yet finished
}

type poolJob struct {
	fn   func()
	done chan struct{}
	// panicked is what fn panicked with, set before done closes; do
	// re-raises it on the submitting goroutine.
	panicked any
}

// run calls fn, recovering a panic into panicked so it neither kills the
// worker (and with it the process) nor escapes the submitter's recover.
func (j *poolJob) run() {
	defer func() { j.panicked = recover() }()
	j.fn()
}

// newWorkerPool starts workers goroutines behind a queue of queueDepth
// waiting jobs (minimums of one worker, zero queue).
func newWorkerPool(workers, queueDepth int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &workerPool{
		limit: int64(workers + queueDepth),
		jobs:  make(chan *poolJob, workers+queueDepth),
	}
	// Admission is gated on the accepted-jobs counter, not channel
	// capacity: a running job has left the channel but still occupies a
	// worker, so counting channel slots alone would admit up to
	// 2×workers+queueDepth jobs. With accepted ≤ limit and running jobs
	// outside the channel, the buffered send below can never block.
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.run()
	}
	return p
}

func (p *workerPool) run() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
		p.queued.Add(-1)
		close(j.done)
	}
}

// do runs fn on a pool worker and waits for it. It fails fast with
// ErrOverloaded when the queue is full; an accepted job always runs to
// completion. The wait has no deadline of its own: do runs inside a cache
// flight's computation (Server.prepareValidate), which owns no requester,
// so a requester that gives up leaves the finished simulation to be
// cached. A panic in fn is re-raised here, on the caller's goroutine,
// where the caller's recover (Server.guardCompute) turns it into an error;
// the worker keeps serving.
func (p *workerPool) do(fn func()) error {
	j := &poolJob{fn: fn, done: make(chan struct{})}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrShuttingDown
	}
	if p.queued.Add(1) > p.limit {
		p.queued.Add(-1)
		p.mu.RUnlock()
		return ErrOverloaded
	}
	p.jobs <- j // cannot block: accepted jobs ≤ limit = channel capacity
	p.mu.RUnlock()
	<-j.done
	if j.panicked != nil {
		panic(j.panicked)
	}
	return nil
}

// depth reports jobs accepted and not yet finished (queued + running).
func (p *workerPool) depth() int64 { return p.queued.Load() }

// shutdown stops intake and waits for every accepted job to finish —
// the draining half of graceful shutdown.
func (p *workerPool) shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
