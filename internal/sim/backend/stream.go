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
// all processors, so the phase buffer can be pre-sized: each per-processor
// chunk starts at events/(2·nproc) ops, clamped to [1024, 131072] — a
// processor's share of a nominal two-phase run — instead of discovering its
// capacity through append-doubling, which is where almost all of a streamed
// run's allocations otherwise come from. A run with many phases therefore
// starts its chunks above its largest phase. workloads.EventHinter reports
// a per-processor count: multiply it by nproc to get this option's total.
func WithEventHint(events int) StreamOption {
	return func(c *streamConfig) { c.eventHint = events }
}

// StreamRun drives the system directly from a workload generator without
// materializing the whole trace: generate runs on the caller's goroutine,
// and each bulk-synchronous phase (barrier to barrier) is simulated as soon
// as its last processor arrives at the barrier, before the next event is
// accepted. Peak memory is one phase instead of the full execution, so
// paper-scale problems (hundreds of millions of references) become
// simulable. Streaming buys memory, not speed: the generator waits while
// the engine simulates.
//
// generate must emit the same bulk-synchronous stream a materialized run
// would (workloads.Workload.Run does); results are identical to Run on the
// materialized trace (see TestStreamRunMatchesRun). Each phase is compiled
// per processor with the trace package's op compiler into one phase buffer
// whose chunks keep their capacity from phase to phase, and executed by the
// same engine Run uses. A malformed stream — an event for a processor that
// does not exist, an unknown event kind, an address beyond trace.MaxAddr,
// or work emitted after the processor's own barrier arrival and before the
// rendezvous — fails the run with an error; the collector then drops every
// later event, and the error is returned once generate does. A panic in
// generate reaches the caller.
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
// side by side, and the next event is accepted once all of them have.
// results[i] is identical to Run of the materialized trace on a fresh copy
// of systems[i] (see TestStreamRunMatchesRun), so a validation matrix that
// simulates one kernel on several platforms generates and compiles its
// trace once and never stores it. At least one system is required, and
// every system must simulate nproc processors; a malformed stream fails the
// whole call as it fails StreamRun.
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
	p := &phaseCollector{
		nproc:   nproc,
		chunks:  make([]trace.OpCompiler, nproc),
		ops:     make([][]trace.Op, nproc),
		arrived: make([]bool, nproc),
		runners: make([]phaseRunner, len(systems)),
	}
	// One backing array: a chunk that outgrows its slice migrates out via
	// append's reallocation, which the pre-size makes rare.
	backing := make([]trace.Op, nproc*chunkCap)
	for i := range p.chunks {
		p.chunks[i].Ops = backing[i*chunkCap : i*chunkCap : (i+1)*chunkCap]
	}
	for i, sys := range systems {
		p.runners[i] = newRunner(sys, nproc, 32)
	}

	err := generate(p)
	if p.err != nil {
		err = p.err
	}
	if err != nil {
		return nil, err
	}
	p.flushTail()
	results := make([]RunResult, len(p.runners))
	for i, r := range p.runners {
		if results[i], err = r.finish(p.instructions); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// phaseCollector compiles one bulk-synchronous phase per processor into
// the run's phase buffer (chunks) and, when every processor has arrived at
// the barrier, runs it on every engine and empties the chunks for the next
// phase. Every chunk of a phase that closed at a barrier ends in OpBarrier.
type phaseCollector struct {
	nproc        int
	chunks       []trace.OpCompiler
	ops          [][]trace.Op // the chunks' ops, as the engines take them
	runners      []phaseRunner
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
	if err := p.chunks[cpu].Add(e); err != nil {
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
			p.runPhase()
			clear(p.arrived)
			p.nwait = 0
		}
	}
}

// runPhase runs the buffered phase on every engine, then empties the
// chunks. Every chunk ended at its barrier or was flushed, so no compute
// is pending and emptying Ops resets the compiler.
func (p *phaseCollector) runPhase() {
	for i := range p.chunks {
		p.ops[i] = p.chunks[i].Ops
	}
	// The systems share nothing but the read-only ops.
	var wg sync.WaitGroup
	for _, r := range p.runners[1:] {
		wg.Add(1)
		go func(r phaseRunner) {
			defer wg.Done()
			r.phase(p.ops)
		}(r)
	}
	p.runners[0].phase(p.ops)
	wg.Wait()
	for i := range p.chunks {
		p.chunks[i].Ops = p.chunks[i].Ops[:0]
	}
}

// flushTail runs work emitted after the last barrier: trailing compute
// gaps become OpNone ops, and an arrival at a barrier that never completed
// stays in its chunk, where the engine reports it as stuck.
func (p *phaseCollector) flushTail() {
	tail := false
	for i := range p.chunks {
		p.chunks[i].Flush()
		tail = tail || len(p.chunks[i].Ops) > 0
	}
	if tail {
		p.runPhase()
	}
}
