package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := newWorkerPool(4, 4)
	defer p.shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.do(func() { n.Add(1) }); err != nil && err != ErrOverloaded {
				t.Errorf("do: %v", err)
			}
		}()
	}
	wg.Wait()
	if n.Load() == 0 {
		t.Error("no jobs ran")
	}
	if d := p.depth(); d != 0 {
		t.Errorf("depth after quiesce = %d, want 0", d)
	}
}

func TestPoolShedsWhenFull(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.shutdown()
	block := make(chan struct{})
	started := make(chan struct{})

	// Fill the worker...
	go p.do(func() { close(started); <-block })
	<-started
	// ...and the single queue slot.
	queued := make(chan error, 1)
	go func() { queued <- p.do(func() {}) }()
	for p.depth() < 2 {
		time.Sleep(time.Millisecond)
	}

	// The pool is saturated: the next submission is shed immediately.
	if err := p.do(func() {}); err != ErrOverloaded {
		t.Errorf("do on full pool = %v, want ErrOverloaded", err)
	}

	close(block)
	if err := <-queued; err != nil {
		t.Errorf("queued job err = %v", err)
	}
}

func TestPoolShutdownDrains(t *testing.T) {
	p := newWorkerPool(2, 4)
	var done atomic.Int64
	errs := make(chan error, 6)
	gate := make(chan struct{})
	var entered sync.WaitGroup
	for i := 0; i < 2; i++ {
		entered.Add(1)
		go func() {
			errs <- p.do(func() {
				entered.Done()
				<-gate
				done.Add(1)
			})
		}()
	}
	entered.Wait()
	// Queue two more behind the busy workers.
	for i := 0; i < 2; i++ {
		go func() { errs <- p.do(func() { done.Add(1) }) }()
	}
	for p.depth() < 4 {
		time.Sleep(time.Millisecond)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	p.shutdown() // must wait for all four accepted jobs

	if n := done.Load(); n != 4 {
		t.Errorf("completed jobs = %d, want all 4 accepted before shutdown", n)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Errorf("accepted job err = %v", err)
		}
	}
	if err := p.do(func() {}); err != ErrShuttingDown {
		t.Errorf("do after shutdown = %v, want ErrShuttingDown", err)
	}
	p.shutdown() // idempotent
}
