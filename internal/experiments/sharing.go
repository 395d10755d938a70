package experiments

import (
	"math/bits"
	"slices"

	"memhier/internal/sim/backend"
	"memhier/internal/trace"
)

// SharingStats summarizes the cross-machine data sharing of a
// multiprocessor address stream, measured without any timing simulation —
// the model inputs that reconstruct the communication term of the paper's
// cluster formulas (DESIGN.md §4).
type SharingStats struct {
	// RemoteShare is the fraction of references touching DSM blocks homed
	// (first touched) on a different machine.
	RemoteShare float64
	// CoherenceMissRate is the fraction of references that re-touch a
	// block another machine wrote since this machine's previous access:
	// an invalidation-induced miss under write-invalidate coherence,
	// independent of cache capacity.
	CoherenceMissRate float64
}

// MaxSharingMachines bounds the machines MeasureSharing tells apart: it
// keeps one bit per machine in a 64-bit word.
const MaxSharingMachines = 64

// MeasureSharing analyzes the trace with streams merged round-robin (the
// simulators' first-touch placement emerges from each process initializing
// its own partition first): round k applies event k of every processor in
// CPU order. procsPerNode groups the trace's CPUs into machines; a value
// below 1 counts as 1. The measurement's domain is at most
// MaxSharingMachines machines: beyond that, machine m shares machine
// m mod 64's coherence bit and the coherence miss rate is wrong, so
// callers taking the grouping from outside the program must check it
// (chc trace does).
//
// MeasureSharing drives one sharingGroup in that order; the Suite's
// sharingAccumulator restores the same order from a generator's emission,
// so the stored and the streamed measurement share one set of rules.
func MeasureSharing(tr *trace.Trace, procsPerNode int) SharingStats {
	g := newSharingGroup(len(tr.Streams), procsPerNode)
	var refs, remote, coherence uint64
	for k := 0; ; k++ {
		progressed := false
		for cpu, s := range tr.Streams {
			if k >= len(s.Events) {
				continue
			}
			progressed = true
			if e := s.Events[k]; e.Kind == trace.Read || e.Kind == trace.Write {
				r, c := g.blocks.touch(e.Addr/backend.DSMBlockSize, g.nodes[cpu], e.Kind == trace.Write)
				refs++
				if r {
					remote++
				}
				if c {
					coherence++
				}
			}
		}
		if !progressed {
			break
		}
	}
	g.refs, g.remote, g.coherence = refs, remote, coherence
	return g.result()
}

// sharingGroup is the sharing state of a stream under one grouping of its
// processors into machines.
type sharingGroup struct {
	nodes     []int // machine of each CPU
	blocks    sharingTable
	refs      uint64
	remote    uint64
	coherence uint64
}

func newSharingGroup(nproc, procsPerNode int) sharingGroup {
	if procsPerNode < 1 {
		procsPerNode = 1
	}
	g := sharingGroup{nodes: make([]int, nproc)}
	for cpu := range g.nodes {
		g.nodes[cpu] = cpu / procsPerNode
	}
	return g
}

// result converts the counters into SharingStats.
func (g *sharingGroup) result() SharingStats {
	if g.refs == 0 {
		return SharingStats{}
	}
	return SharingStats{
		RemoteShare:       float64(g.remote) / float64(g.refs),
		CoherenceMissRate: float64(g.coherence) / float64(g.refs),
	}
}

// sharingAccumulator measures SharingStats while a trace streams, for one
// or more groupings of its processors into machines. As a trace.Sink it
// numbers each processor's events as a materialized Trace would store them
// (consecutive compute gaps coalesce, empty ones vanish) and applies the
// references in MeasureSharing's (position, cpu) round-robin order,
// whatever the interleaving of processors in the emission. A reference
// waits in its processor's order buffer until every reference ahead of it
// in that order is known, so the buffers hold the positions emitted ahead
// of the slowest processor: about one phase for kernels that emit one
// processor's whole phase before the next one's (runner.Each), plus the
// drift between processors' event counts. The order does not depend on the
// grouping, so every grouping of a stream shares one accumulator and one
// order buffer.
//
// The accumulator is not safe for concurrent use; Emit runs on the
// generator's goroutine and stats after the generator has returned.
type sharingAccumulator struct {
	groups      []sharingGroup // one per grouping
	pos         []int          // per CPU: stream position of its next event
	lastCompute []bool         // per CPU: its last stored event is a compute gap
	pend        []orderQueue   // per CPU: references waiting for their turn
	pool        *refPool       // where order-buffer blocks come from and go back to
	k, c        int            // cursor: the next (position, cpu) slot to apply
	done        bool           // the stream has ended: unemitted slots are empty
	end         int            // once done: the largest position, where advance stops
	buffered    int            // references in the order buffers
	peak        int            // largest buffered
}

// pendingRef is a reference in a processor's order buffer.
type pendingRef struct {
	addr uint64
	tag  uint64 // stream position << 1 | 1 for a write
}

// refBlockLen is the capacity of one order-buffer block. The buffers are
// chains of fixed blocks recycled through a free list, so their storage
// tracks the live references instead of each processor's high-water mark.
const refBlockLen = 1 << 10

type refBlock struct {
	refs [refBlockLen]pendingRef
	next *refBlock
}

// refPool is a free list of order-buffer blocks. An accumulator takes
// blocks from its pool and gives every one back by the end of stats, so
// accumulators run one after another on one pool reuse its blocks.
type refPool struct {
	free   *refBlock
	blocks int // blocks allocated over the pool's life
}

// get takes a block off the free list, or allocates one.
func (p *refPool) get() *refBlock {
	b := p.free
	if b == nil {
		p.blocks++
		return new(refBlock)
	}
	p.free = b.next
	b.next = nil
	return b
}

// put returns a block to the free list.
func (p *refPool) put(b *refBlock) {
	b.next = p.free
	p.free = b
}

// orderQueue is one processor's order buffer: a FIFO over a block chain.
type orderQueue struct {
	head, tail *refBlock
	hi, ti     int // next read index in head, next write index in tail
}

// newSharingAccumulator measures an nproc-processor stream under each
// grouping of procsPerNode processors per machine. Its blocks come from a
// pool of its own; set pool to share one.
func newSharingAccumulator(nproc int, procsPerNode ...int) *sharingAccumulator {
	a := &sharingAccumulator{
		groups:      make([]sharingGroup, len(procsPerNode)),
		pos:         make([]int, nproc),
		lastCompute: make([]bool, nproc),
		pend:        make([]orderQueue, nproc),
		pool:        new(refPool),
	}
	for i, pn := range procsPerNode {
		a.groups[i] = newSharingGroup(nproc, pn)
	}
	return a
}

// Emit implements trace.Sink. cpu must be below the accumulator's
// processor count.
func (a *sharingAccumulator) Emit(cpu int, e trace.Event) {
	switch e.Kind {
	case trace.Read, trace.Write, trace.Barrier:
		a.lastCompute[cpu] = false
	case trace.Compute:
		if e.N == 0 || a.lastCompute[cpu] {
			return // stored as part of the previous gap, or not at all
		}
		a.lastCompute[cpu] = true
	default:
		return // a Trace stores nothing for an unknown kind
	}
	p := a.pos[cpu]
	a.pos[cpu]++
	ref := e.Kind == trace.Read || e.Kind == trace.Write
	if a.k == p && a.c == cpu {
		// The cursor waits on exactly this slot: apply without buffering.
		if ref {
			a.apply(cpu, e.Addr, e.Kind == trace.Write)
		}
		a.advance()
		return
	}
	if ref {
		tag := uint64(p) << 1
		if e.Kind == trace.Write {
			tag |= 1
		}
		a.push(cpu, pendingRef{addr: e.Addr, tag: tag})
	}
}

// advance moves the cursor past its slot, which has been applied, and
// applies buffered references in (position, cpu) order until it reaches a
// slot whose processor has not emitted that position yet — or, once the
// stream has ended, every slot.
func (a *sharingAccumulator) advance() {
	k, c := a.k, a.c
	for {
		if c++; c == len(a.pos) {
			c = 0
			k++
		}
		if a.pos[c] <= k {
			if !a.done || k >= a.end {
				break
			}
		} else if q := &a.pend[c]; q.head != nil && (q.head != q.tail || q.hi < q.ti) {
			if r := q.head.refs[q.hi]; r.tag>>1 == uint64(k) {
				a.apply(c, r.addr, r.tag&1 != 0)
				a.pop(c)
			}
		}
	}
	a.k, a.c = k, c
}

// push appends r to cpu's order buffer.
func (a *sharingAccumulator) push(cpu int, r pendingRef) {
	q := &a.pend[cpu]
	if q.tail == nil || q.ti == refBlockLen {
		b := a.pool.get()
		if q.tail == nil {
			q.head, q.hi = b, 0
		} else {
			q.tail.next = b
		}
		q.tail, q.ti = b, 0
	}
	q.tail.refs[q.ti] = r
	q.ti++
	a.buffered++
	a.peak = max(a.peak, a.buffered)
}

// pop drops the head of cpu's order buffer; a drained block goes back to
// the pool.
func (a *sharingAccumulator) pop(cpu int) {
	a.buffered--
	q := &a.pend[cpu]
	if q.hi++; q.hi < refBlockLen {
		return
	}
	b := q.head
	q.head, q.hi = b.next, 0
	if q.head == nil {
		q.tail = nil
	}
	a.pool.put(b)
}

// apply records one reference by cpu under every grouping.
func (a *sharingAccumulator) apply(cpu int, addr uint64, write bool) {
	block := addr / backend.DSMBlockSize
	for i := range a.groups {
		g := &a.groups[i]
		remote, coherence := g.blocks.touch(block, g.nodes[cpu], write)
		g.refs++
		if remote {
			g.remote++
		}
		if coherence {
			g.coherence++
		}
	}
}

// stats ends the stream, applies every buffered reference, returns every
// order-buffer block to the pool, partly drained ones included, and
// returns the measurement under each grouping, in the order
// newSharingAccumulator took them. No Emit may follow.
func (a *sharingAccumulator) stats() []SharingStats {
	if len(a.pos) > 0 {
		a.done = true
		a.end = slices.Max(a.pos)
		// advance starts past the cursor's slot, which is still pending:
		// back the cursor up one slot.
		if a.c--; a.c < 0 {
			a.c = len(a.pos) - 1
			a.k--
		}
		a.advance()
	}
	for i := range a.pend {
		q := &a.pend[i]
		for b := q.head; b != nil; {
			next := b.next
			a.pool.put(b)
			b = next
		}
		*q = orderQueue{}
	}
	out := make([]SharingStats, len(a.groups))
	for i := range a.groups {
		out[i] = a.groups[i].result()
	}
	return out
}

// sharingEnt is one block's sharing state.
type sharingEnt struct {
	block uint64 // sharingEmpty marks a free slot
	valid uint64 // machines whose copy survived the last foreign write
	seen  uint64 // machines that ever touched the block
	home  int32  // first-touch machine
}

// sharingEmpty is the free-slot sentinel. Blocks are byte addresses divided
// by DSMBlockSize, so with addresses bounded by trace.MaxAddr no real
// block key reaches it.
const sharingEmpty = ^uint64(0)

// sharingTable maps block -> sharingEnt with open addressing (linear
// probing, Fibonacci hashing), in the shape of the simulator's directory
// table. It starts small and doubles at 75% load, so it is sized by the
// distinct blocks touched — a few hundred to a few thousand for the
// reduced-scale traces — not by the trace length or the address range.
type sharingTable struct {
	slots []sharingEnt
	shift uint // 64 - log2(len(slots)): Fibonacci hash to a slot index
	n     int  // occupied slots
}

// getOrCreate returns the entry for block, creating it with the given
// home on first touch. The pointer is valid until the next call.
func (t *sharingTable) getOrCreate(block uint64, home int) *sharingEnt {
	if t.n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (block * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.slots[i]
		if s.block == block {
			return s
		}
		if s.block == sharingEmpty {
			*s = sharingEnt{block: block, home: int32(home)}
			t.n++
			return s
		}
		i = (i + 1) & mask
	}
}

// touch applies one reference by node to block's sharing state — the
// sharing rules — and reports whether the block is homed (first touched)
// on another machine and whether the reference is a coherence miss: a
// re-reference by a machine whose copy a foreign write invalidated.
func (t *sharingTable) touch(block uint64, node int, write bool) (remote, coherence bool) {
	bit := uint64(1) << uint(node%64)
	st := t.getOrCreate(block, node)
	remote = st.home != int32(node)
	coherence = st.seen&bit != 0 && st.valid&bit == 0
	st.seen |= bit
	if write {
		st.valid = bit
	} else {
		st.valid |= bit
	}
	return remote, coherence
}

func (t *sharingTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = 1 << 10
	}
	t.slots = make([]sharingEnt, size)
	for i := range t.slots {
		t.slots[i].block = sharingEmpty
	}
	t.shift = uint(64 - bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.block == sharingEmpty {
			continue
		}
		i := (e.block * 0x9E3779B97F4A7C15) >> t.shift
		for t.slots[i].block != sharingEmpty {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}
