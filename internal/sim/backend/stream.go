package backend

import (
	"errors"
	"fmt"
	"sync"

	"memhier/internal/trace"
)

// StreamOption configures a StreamRun.
type StreamOption func(*streamConfig)

type streamConfig struct {
	eventHint int
}

// WithEventHint passes the generator's approximate total event count, over
// all processors, so the phase buffers can be pre-sized: each
// per-processor chunk starts at events/(2·nproc) ops, clamped to
// [1024, 131072] — a processor's share of a nominal two-phase run — instead
// of discovering its capacity through append-doubling, which is where
// almost all of a streamed run's allocations otherwise come from. A run
// with many phases therefore starts its chunks above its largest phase.
// workloads.EventHinter reports a per-processor count: multiply it by
// nproc to get this option's total.
func WithEventHint(events int) StreamOption {
	return func(c *streamConfig) { c.eventHint = events }
}

// StreamRun drives the system directly from a workload generator without
// materializing the whole trace: the generator runs concurrently and its
// events are consumed phase by phase (barrier to barrier), so peak memory
// is one bulk-synchronous phase instead of the full execution. Paper-scale
// problems (hundreds of millions of references) become simulable.
//
// generate must emit the same bulk-synchronous stream a materialized run
// would (workloads.Workload.Run does); results are identical to Run on the
// materialized trace (see TestStreamRunMatchesRun). Each phase is compiled
// per processor with the trace package's op compiler and executed by the
// same engine Run uses. A malformed stream — an event for a processor that
// does not exist, an unknown event kind, an address beyond trace.MaxAddr,
// or work emitted after the processor's own barrier arrival and before the
// rendezvous — fails the run with an error; the collector then drops every
// later event, so generate runs to completion and no goroutine is left
// behind.
//
// The consumer and generator exchange two phase buffers through a free
// list, so the steady state allocates nothing per phase: each buffer's
// per-processor chunks keep their capacity across phases. The exchange
// lets the generator run at most one phase ahead of the engine, but the
// two barely overlap in practice: a streamed run uses about one CPU and
// takes longer than Run on the materialized trace. Streaming buys memory,
// not speed.
//
// StreamRun is StreamRunAll with one system.
func StreamRun(sys *System, nproc int, generate func(sink trace.Sink) error, opts ...StreamOption) (RunResult, error) {
	res, err := StreamRunAll([]*System{sys}, nproc, generate, opts...)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}

// StreamRunAll drives every system from one pass of the generator. Each
// phase is compiled once; the systems' engines run the same read-only ops
// side by side, and the buffer returns to the free list once all of them
// have. results[i] is identical to Run of the materialized trace on a
// fresh copy of systems[i] (see TestStreamRunMatchesRun), so a validation
// matrix that simulates one kernel on several platforms generates and
// compiles its trace once and never stores it. At least one system is
// required, and every system must simulate nproc processors; a malformed
// stream fails the whole call as it fails StreamRun.
func StreamRunAll(systems []*System, nproc int, generate func(sink trace.Sink) error, opts ...StreamOption) ([]RunResult, error) {
	if len(systems) == 0 {
		return nil, errors.New("backend: no systems to drive")
	}
	for _, sys := range systems {
		if nproc != sys.Config().TotalProcs() {
			return nil, fmt.Errorf("backend: generator has %d processors, %s simulates %d",
				nproc, sys.Config().Name, sys.Config().TotalProcs())
		}
	}
	var sc streamConfig
	for _, o := range opts {
		o(&sc)
	}

	// Pre-size each per-processor chunk from the hint: an even split across
	// processors and a nominal phase count, clamped so a missing or wild
	// hint can neither blow up memory nor matter much.
	chunkCap := 1 << 10
	if sc.eventHint > 0 {
		if c := sc.eventHint / (nproc * 2); c > chunkCap {
			chunkCap = c
		}
		if max := 1 << 17; chunkCap > max {
			chunkCap = max
		}
	}
	newBuf := func() *phaseBuf {
		// One backing array per buffer: a chunk that outgrows its slice
		// migrates out via append's reallocation, which the pre-size makes
		// rare.
		b := &phaseBuf{chunks: make([]trace.OpCompiler, nproc)}
		backing := make([]trace.Op, nproc*chunkCap)
		for i := range b.chunks {
			b.chunks[i].Ops = backing[i*chunkCap : i*chunkCap : (i+1)*chunkCap]
		}
		return b
	}
	out := make(chan *phaseBuf, 1)
	free := make(chan *phaseBuf, 2)
	free <- newBuf()
	free <- newBuf()
	collector := &phaseCollector{nproc: nproc, out: out, free: free, arrived: make([]bool, nproc)}
	genErr := make(chan error, 1)

	go func() {
		defer close(out)
		err := generate(collector)
		if collector.err != nil {
			err = collector.err
		} else if err == nil {
			collector.flushTail()
		}
		genErr <- err
	}()

	// The engine never fails mid-stream, so every handed-over phase is
	// consumed and returned: the generator can never block on a full
	// channel or an empty free list.
	runners := make([]phaseRunner, len(systems))
	for i, sys := range systems {
		runners[i] = newRunner(sys, nproc, 32)
	}
	ops := make([][]trace.Op, nproc)
	for ph := range out {
		for i := range ph.chunks {
			ops[i] = ph.chunks[i].Ops
		}
		// The systems share nothing but the read-only ops.
		var wg sync.WaitGroup
		for _, r := range runners[1:] {
			wg.Add(1)
			go func(r phaseRunner) {
				defer wg.Done()
				r.phase(ops)
			}(r)
		}
		runners[0].phase(ops)
		wg.Wait()
		free <- ph
	}
	if err := <-genErr; err != nil {
		return nil, err
	}
	results := make([]RunResult, len(runners))
	for i, r := range runners {
		var err error
		if results[i], err = r.finish(collector.instructions); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// phaseBuf is one bulk-synchronous phase, compiled per processor; every
// chunk of a phase that closed at a barrier ends in OpBarrier. Buffers
// cycle between the generator and the engine through the free list; chunks
// keep their capacity across phases.
type phaseBuf struct {
	chunks []trace.OpCompiler
}

// phaseCollector compiles one bulk-synchronous phase and hands it over when
// every processor has arrived at the barrier. It runs on the generator's
// goroutine; StreamRun reads instructions and err only after generate has
// returned.
type phaseCollector struct {
	nproc        int
	out          chan<- *phaseBuf
	free         <-chan *phaseBuf
	cur          *phaseBuf
	arrived      []bool
	nwait        int
	instructions uint64 // m + M over every accepted event
	// err is the first malformed event; once set, Emit drops everything.
	err error
}

// Emit implements trace.Sink.
func (p *phaseCollector) Emit(cpu int, e trace.Event) {
	if p.err != nil {
		return
	}
	if cpu < 0 || cpu >= p.nproc {
		p.err = fmt.Errorf("backend: event for processor %d of a %d-processor stream", cpu, p.nproc)
		return
	}
	if p.arrived[cpu] {
		// Work emitted after the processor's own barrier arrival and before
		// the rendezvous completed (a second arrival included).
		p.err = fmt.Errorf("backend: processor %d emitted %v after its barrier arrival; the stream is not bulk-synchronous", cpu, e.Kind)
		return
	}
	if p.cur == nil {
		// Every chunk of a handed-over phase ended at its barrier, which
		// consumed the pending compute; emptying Ops resets the compiler.
		p.cur = <-p.free
		for i := range p.cur.chunks {
			p.cur.chunks[i].Ops = p.cur.chunks[i].Ops[:0]
		}
	}
	if err := p.cur.chunks[cpu].Add(e); err != nil {
		p.err = fmt.Errorf("backend: processor %d: %w", cpu, err)
		return
	}
	switch e.Kind {
	case trace.Read, trace.Write:
		p.instructions++
	case trace.Compute:
		p.instructions += e.N
	case trace.Barrier:
		p.arrived[cpu] = true
		p.nwait++
		if p.nwait == p.nproc {
			p.out <- p.cur
			p.cur = nil
			clear(p.arrived)
			p.nwait = 0
		}
	}
}

// flushTail hands over work emitted after the last barrier: trailing
// compute gaps become OpNone ops, and an arrival at a barrier that never
// completed stays in its chunk, where the engine reports it as stuck.
func (p *phaseCollector) flushTail() {
	if p.cur == nil {
		return
	}
	for i := range p.cur.chunks {
		p.cur.chunks[i].Flush()
	}
	p.out <- p.cur
	p.cur = nil
}
