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
	buf *PhaseBuffer
}

// WithEventHint has no effect. The phase buffer is built from fixed blocks
// recycled phase to phase, so its size follows the largest phase without
// a hint of the generator's event count.
//
// Deprecated: pass nothing; WithPhaseBuffer shares blocks between runs.
// It stays only because pipebench, a module of its own, still passes it.
//
//chc:allow deadexport -- called by the pipebench module
func WithEventHint(events int) StreamOption {
	return func(*streamConfig) {}
}

// WithPhaseBuffer compiles the run's phases into buf instead of a buffer of
// its own, so consecutive runs reuse one set of blocks. The run leaves
// every block it took on buf's free list.
func WithPhaseBuffer(buf *PhaseBuffer) StreamOption {
	return func(c *streamConfig) { c.buf = buf }
}

// opBlockLen is the capacity of one phase-buffer block: 4096 ops, 64 KiB.
const opBlockLen = 1 << 12

// PhaseBuffer is the storage a streamed run compiles its phases into:
// blocks of opBlockLen ops that are never grown, chained per processor
// and put on a free list once their phase has run. Phase storage is
// therefore about one phase, whatever the run's length or its processors'
// high-water marks. The zero value is an empty buffer. A buffer may carry
// its blocks from one StreamRunAll call to the next, but not be used by
// two at once.
type PhaseBuffer struct {
	free   [][]trace.Op // emptied blocks, ready for reuse
	blocks int          // blocks allocated over the buffer's life
}

// get takes an empty block off the free list, or allocates one.
func (b *PhaseBuffer) get() []trace.Op {
	if n := len(b.free); n > 0 {
		blk := b.free[n-1]
		b.free = b.free[:n-1]
		return blk
	}
	b.blocks++
	return make([]trace.Op, 0, opBlockLen)
}

// put returns a block to the free list.
func (b *PhaseBuffer) put(blk []trace.Op) {
	b.free = append(b.free, blk[:0])
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
// per processor with the trace package's op compiler into a chain of the
// phase buffer's fixed blocks, executed by the same engine Run uses, and
// its blocks recycled for the next phase, so phase storage tracks the
// largest phase (see PhaseBuffer). A malformed stream — an event for a
// processor that does not exist, an unknown event kind, an address beyond
// trace.MaxAddr, or work emitted after the processor's own barrier arrival
// and before the rendezvous — fails the run with an error; the collector
// then drops every later event, and the error is returned once generate
// does. A panic in generate reaches the caller.
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
// trace once and never stores it. Without WithPhaseBuffer the call
// compiles into a buffer of its own. At least one system is required, and
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
	if sc.buf == nil {
		sc.buf = new(PhaseBuffer)
	}
	p := &phaseCollector{
		nproc:   nproc,
		buf:     sc.buf,
		comps:   make([]trace.OpCompiler, nproc),
		chains:  make([][][]trace.Op, nproc),
		arrived: make([]bool, nproc),
		runners: make([]phaseRunner, len(systems)),
	}
	defer p.release()
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
// the phase buffer's blocks and, when every processor has arrived at the
// barrier, runs it on every engine and returns the blocks to the buffer.
// Each processor compiles into its open block (comps[cpu].Ops) and chains
// it when it fills; a block is never grown, and every chained block is
// full. Every phase that closed at a barrier ends in OpBarrier.
type phaseCollector struct {
	nproc        int
	buf          *PhaseBuffer
	comps        []trace.OpCompiler // per processor, compiling into its open block
	chains       [][][]trace.Op     // per processor: the phase's blocks before the open one
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
	c := &p.comps[cpu]
	if len(c.Ops) == cap(c.Ops) {
		p.openBlock(cpu)
	}
	if err := c.Add(e); err != nil {
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

// openBlock chains cpu's full open block, if it has one, and opens a fresh
// one. The compiler appends at most one op per Add or Flush, so calling it
// whenever the open block has no free slot keeps every block at its size.
func (p *phaseCollector) openBlock(cpu int) {
	c := &p.comps[cpu]
	if c.Ops != nil {
		p.chains[cpu] = append(p.chains[cpu], c.Ops)
	}
	c.Ops = p.buf.get()
}

// runPhase runs the buffered phase on every engine, then returns its blocks
// to the buffer. Every processor's phase ended at its barrier or was
// flushed, so no compute is pending when its compiler loses the block.
func (p *phaseCollector) runPhase() {
	for i := range p.comps {
		// Chain the open block unless it is empty: an engine reads the op
		// after a block's end from the next block.
		if c := &p.comps[i]; len(c.Ops) > 0 {
			p.chains[i] = append(p.chains[i], c.Ops)
			c.Ops = nil
		}
	}
	// The systems share nothing but the read-only ops.
	var wg sync.WaitGroup
	for _, r := range p.runners[1:] {
		wg.Add(1)
		go func(r phaseRunner) {
			defer wg.Done()
			r.phase(p.chains)
		}(r)
	}
	p.runners[0].phase(p.chains)
	wg.Wait()
	p.release()
}

// release returns every block the collector holds to the buffer.
func (p *phaseCollector) release() {
	for i, chain := range p.chains {
		for _, blk := range chain {
			p.buf.put(blk)
		}
		p.chains[i] = chain[:0]
		if c := &p.comps[i]; c.Ops != nil {
			p.buf.put(c.Ops)
			c.Ops = nil
		}
	}
}

// flushTail runs work emitted after the last barrier: trailing compute
// gaps become OpNone ops, and an arrival at a barrier that never completed
// stays in its chain, where the engine reports it as stuck.
func (p *phaseCollector) flushTail() {
	tail := false
	for i := range p.comps {
		c := &p.comps[i]
		if len(c.Ops) == cap(c.Ops) {
			p.openBlock(i)
		}
		c.Flush()
		tail = tail || len(c.Ops) > 0 || len(p.chains[i]) > 0
	}
	if tail {
		p.runPhase()
	}
}
