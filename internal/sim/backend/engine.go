package backend

import (
	"fmt"
	"math"

	"memhier/internal/machine"
	"memhier/internal/sim/cache"
	"memhier/internal/trace"
)

// RunResult summarizes one simulated execution.
type RunResult struct {
	Config       string
	WallCycles   float64 // completion time of the slowest processor
	Instructions uint64  // m + M across all processors
	MemoryRefs   uint64
	// EInstr is wall time divided by total instructions: the simulated
	// counterpart of the model's E(Instr) (eq. 4), in cycles.
	EInstr float64
	// Seconds converts EInstr with the configured clock.
	Seconds float64
	// AvgT is the observed average memory access time per reference.
	AvgT float64
	// BarrierWaitCycles is the total time processors spent blocked at
	// barriers.
	BarrierWaitCycles float64
	Barriers          uint64

	Stats Stats
	// Phases profiles the barrier-delimited bulk-synchronous phases: one
	// entry per barrier interval plus a final entry for work after the
	// last barrier (if any). Where the cycles go, phase by phase.
	Phases []PhaseStats
	// ClassShare[c] is the fraction of references served by class c.
	ClassShare [numClasses]float64
	// CoherenceShare is the fraction of memory-bus cycles spent on
	// coherence transactions (the paper reports 2.1–7.2% on SMPs).
	CoherenceShare float64
	// NetUtilization is network busy time over wall time (0 for an SMP).
	NetUtilization float64
}

// PhaseStats profiles one barrier-delimited phase of the execution.
type PhaseStats struct {
	Index       int
	StartCycle  float64
	EndCycle    float64 // the barrier-release instant (or final wall time)
	BarrierWait float64 // total processor-cycles waiting at the closing barrier
	Stats       Stats   // counter deltas for the phase
}

// Cycles returns the phase's wall-clock span.
func (p PhaseStats) Cycles() float64 { return p.EndCycle - p.StartCycle }

// checkTrace validates a trace against a system before a run. A valid trace
// has one stream per simulated processor, balanced barriers, and in-range
// addresses.
func checkTrace(tr *trace.Trace, sys *System) error {
	if want := sys.Config().TotalProcs(); tr.NumCPU() != want {
		return fmt.Errorf("backend: trace has %d streams, %s simulates %d processors",
			tr.NumCPU(), sys.Config().Name, want)
	}
	return tr.Validate()
}

// Run drives the system with the trace, interleaving processors in global
// time order, and returns the execution summary. The trace must have one
// stream per simulated processor and balanced barriers. The whole trace is
// one phase of the engine (see engine.run), barriers included; results are
// identical to the unbatched reference executor (see
// TestRunMatchesReference).
func Run(tr *trace.Trace, sys *System) (RunResult, error) {
	if err := checkTrace(tr, sys); err != nil {
		return RunResult{}, err
	}
	// Each processor's chain is its whole stream, as one block.
	blocks := make([][]trace.Op, tr.NumCPU())
	chains := make([][][]trace.Op, tr.NumCPU())
	for i, s := range tr.Streams {
		var err error
		if blocks[i], err = s.Ops(); err != nil {
			return RunResult{}, fmt.Errorf("backend: %w", err)
		}
		chains[i] = blocks[i : i+1 : i+1]
	}
	phaseCap := 0
	if nb := tr.Streams[0].Barriers(); nb > 0 {
		// One phase per barrier plus the tail; pre-sizing skips the append
		// growth chain (PhaseStats is a couple hundred bytes).
		phaseCap = int(nb) + 1
	}
	r := newRunner(sys, len(chains), phaseCap)
	r.phase(chains)
	return r.finish(tr.Instructions())
}

// clock is the engine's clock type: uint64 when every latency is integral
// (System.exactLatencies), float64 otherwise. Both instantiations run the
// same loop.
type clock interface{ ~uint64 | ~float64 }

// phaseRunner is the engine as Run and StreamRun drive it: phase once per
// batch of compiled ops, then finish.
type phaseRunner interface {
	phase(chains [][][]trace.Op)
	finish(instructions uint64) (RunResult, error)
}

// newRunner builds the engine for sys with the exact integer clock when the
// latency table allows it (see DESIGN.md, "Exact integer clocks") and with
// float clocks otherwise. phaseCap pre-sizes the phase profile.
func newRunner(sys *System, nproc, phaseCap int) phaseRunner {
	if sys.exactLatencies() {
		e := newEngine[uint64](sys, nproc, phaseCap, math.MaxUint64)
		e.deferHits = true
		return e
	}
	return newEngine(sys, nproc, phaseCap, math.Inf(1))
}

// engine is the simulator's one scheduling loop (run) and the state it
// carries from one phase to the next.
type engine[C clock] struct {
	sys  *System
	hots []cache.Hot
	// deferHits batches private-hit accounting in hitN; only exact integer
	// clocks may, since regrouping fractional sums changes result bits.
	deferHits bool
	inf       C // parks a processor: it loses every scan comparison
	latInstr  C
	latHit    C

	// Per processor. chains[cpu] is the current phase's compiled ops, one
	// block after another; blks[cpu] indexes the block being executed,
	// ops[cpu] is that block and nexts[cpu] the next op in it. Every block
	// of a chain but the first holds at least one op, so the op after the
	// end of a block is the next block's first. ready[cpu] is the scan
	// key: a lower bound on when the processor next touches shared
	// machinery, or inf while it is blocked at a barrier or out of ops.
	// clocks[cpu] is its committed clock: for a processor parked on a
	// gated reference, ready holds the reference's contention time while
	// clocks stays at the clock the compute advance will be recomputed
	// from.
	chains [][][]trace.Op
	blks   []int
	ops    [][]trace.Op
	nexts  []int
	ready  []C
	clocks []C

	hitN       uint64 // private hits flush has not yet applied to the counters
	arrived    int    // processors waiting at the open barrier
	barrierMax C      // latest arrival at the open barrier
	phaseStart C
	wall       C
	phaseBase  Stats
	tTotal     float64
	refs       uint64
	res        RunResult
}

func newEngine[C clock](sys *System, nproc, phaseCap int, inf C) *engine[C] {
	e := &engine[C]{
		sys:      sys,
		hots:     sys.hots,
		inf:      inf,
		latInstr: C(sys.lat.Instruction),
		latHit:   C(sys.lat.CacheHit),
		chains:   make([][][]trace.Op, nproc),
		blks:     make([]int, nproc),
		ops:      make([][]trace.Op, nproc),
		nexts:    make([]int, nproc),
		ready:    make([]C, nproc),
		clocks:   make([]C, nproc),
	}
	e.res.Config = sys.Config().Name
	if phaseCap > 0 {
		e.res.Phases = make([]PhaseStats, 0, phaseCap)
	}
	return e
}

// key is processor i's scan key at committed clock c: c advanced past the
// compute gap of the processor's next op, which is the next block's first
// at the end of a block (see the batch-end park in run).
func (e *engine[C]) key(i int, c C) C {
	if n, ops := e.nexts[i], e.ops[i]; n < len(ops) {
		c += C(ops[n].N) * e.latInstr
	} else if b := e.blks[i] + 1; b < len(e.chains[i]) {
		c += C(e.chains[i][b][0].N) * e.latInstr
	}
	return c
}

// phase executes one chain of compiled op blocks per processor, barriers
// in-stream, until every chain is exhausted. Run passes each whole stream
// as one block; StreamRun passes one barrier-delimited phase per processor
// at a time, in the phase buffer's fixed blocks. A barrier op carries the
// compute gap before it, so phases that end at a barrier concatenate to the
// whole-stream compile, and a block boundary splits nothing: both drives
// retire the same work in the same order.
func (e *engine[C]) phase(chains [][][]trace.Op) {
	copy(e.chains, chains)
	for i := range e.ready {
		e.blks[i], e.nexts[i], e.ops[i] = 0, 0, nil
		if len(e.chains[i]) > 0 {
			e.ops[i] = e.chains[i][0]
		}
		e.ready[i] = e.key(i, e.clocks[i])
	}
	e.run()
}

// run is the scheduling loop. Each round is one pass over the ready keys
// finding the (key, cpu) minimum and runner-up; the minimum executes with
// event-run batching — its ops keep executing inline while it stays ahead
// of the runner-up — so a long compute/cache-hit run costs one scheduling
// decision instead of one per event. Compute and barrier arrival touch only
// the processor itself and need no ordering; a memory reference waits until
// its (time, cpu) precedes every other processor's key. Shared transactions
// therefore retire in the reference executor's (clock, cpu) order, and the
// results are bit-identical to it.
//
// With integer clocks every clock, wait and cycle accumulator is an exact
// integer far below 2^53, so the serial dependency chain — compute advance,
// gate compare, min-scan — runs in 1-cycle integer arithmetic, converting
// to float64 only at observation points (protocol calls, phase records,
// the final result); each conversion is exact both ways. The same
// exactness licenses deferred hit accounting: one counter bump and one add
// per private hit, settled in bulk by flush before anything reads the
// counters. See DESIGN.md ("Exact integer clocks").
//
//chc:hotpath
func (e *engine[C]) run() {
	stats := &e.sys.stats
	ready, clocks, nexts := e.ready, e.clocks, e.nexts
	latInstr, latHit, inf, deferHits := e.latInstr, e.latHit, e.inf, e.deferHits
	want := len(ready)
	live := want
outer:
	for live > 0 {
		// One pass over the keys: bi/bc is the (key, cpu) minimum, si/sc the
		// runner-up. Only strict < displaces, so the lowest CPU index wins
		// ties. Parked processors sit at inf and lose every comparison; a
		// runner-up at inf means the picked processor is effectively alone,
		// and every gate below passes.
		bi := 0
		bc := ready[0]
		si := 0
		sc := inf
		for i := 1; i < want; i++ {
			c := ready[i]
			if c < bc {
				sc, si = bc, bi
				bc, bi = c, i
			} else if c < sc {
				sc, si = c, i
			}
		}
		clock := clocks[bi]
		next := nexts[bi]
		ops := e.ops[bi]
		// hn mirrors hitN in a register for the whole scheduling round;
		// every exit path below stores it back before flush can read it or
		// another round begins.
		hn := e.hitN
		h := &e.hots[bi]
		shift := h.Shift
		mask := h.Mask
		ways := h.Ways
		for {
			if next >= len(ops) {
				if b := e.blks[bi] + 1; b < len(e.chains[bi]) {
					// End of a block: park on the next block's first op, as
					// the batch-end park does, and let the scan resume it.
					// Switching in place would make ops loop-carried, which
					// costs the loop spills on every op.
					e.blks[bi] = b
					e.ops[bi] = e.chains[bi][b]
					clocks[bi] = clock
					nexts[bi] = 0
					ready[bi] = e.key(bi, clock)
					e.hitN = hn
					continue outer
				}
				// Out of ops; the processor halts at its current clock.
				if clock > e.wall {
					e.wall = clock
				}
				ready[bi] = inf
				e.hitN = hn
				live--
				break
			}
			op := ops[next]
			next++
			kind := op.Arg & 3
			if kind == trace.OpNone {
				// Pure compute advances only this processor's clock; no
				// ordering against the rest of the machine is needed.
				clock += C(op.N) * latInstr
				continue
			}
			if kind == trace.OpBarrier {
				clock += C(op.N) * latInstr
				// Arrival bookkeeping commutes (max over clocks), so no
				// ordering is needed here either.
				if clock > e.barrierMax {
					e.barrierMax = clock
				}
				clocks[bi] = clock
				nexts[bi] = next
				ready[bi] = inf
				e.hitN = hn
				live--
				e.arrived++
				if e.arrived == want {
					e.release()
					live = want
				}
				continue outer
			}
			// Memory reference at time t: it touches shared machinery, so it
			// must wait until this processor is globally earliest. Parking
			// rewinds next rather than saving a half-executed op: the
			// compute advance is recomputed from the same committed clock on
			// resume (the same arithmetic, so the same bits), which lets the
			// resumed reference run through the fast path below. Being
			// picked as the scan minimum with ready[bi] = t implies (t, cpu)
			// precedes the new runner-up, so the re-checked gate passes on
			// resume.
			t := clock + C(op.N)*latInstr
			if t > sc || (t == sc && bi >= si) {
				nexts[bi] = next - 1
				clocks[bi] = clock
				ready[bi] = t
				e.hitN = hn
				continue outer
			}
			clock = t
			// Flattened private-hit fast path: the two-way probe from
			// cache.Hot inlined into the loop, no call on a hit. The way
			// match is branchless — which way hits is data-dependent and
			// mispredicts heavily if branched on: w ^ tag<<3 clears the tag
			// bits exactly on a match, so after masking the MRU bit the
			// residue is the state, and "in 1..3" (one unsigned compare) is
			// "valid line with this tag". The way selects below compile to
			// conditional moves; only hit-vs-miss remains a branch, and that
			// one is heavily biased.
			addr := op.Arg >> 2
			tag := addr >> shift
			base := (tag & mask) << 1
			w1 := ways[base+1]
			w0 := ways[base]
			hit0 := (w0^(tag<<3))&^4-1 < 3
			hit1 := (w1^(tag<<3))&^4-1 < 3
			w := uint64(0)
			if hit1 {
				w = w1
			}
			if hit0 {
				w = w0
			}
			if w != 0 {
				// MRU update per the Hot contract: way 0's bit 2 names the
				// MRU way; clear it on a way-0 hit, set it on a way-1 hit.
				nm := w0 | 4
				if hit0 {
					nm = w0 &^ 4
				}
				ways[base] = nm
				// Fast path unless this is a write to a non-Modified line.
				// Fused into one biased compare (kind^OpWrite stacked over
				// state^Modified): branching on kind and state separately
				// mispredicts on the workload's read/write mix.
				if m := (kind^trace.OpWrite)<<2 | (w&3 ^ 3); m-1 >= 3 {
					if deferHits {
						hn++
						clock += latHit
					} else {
						stats.Refs++
						d := float64(clock+latHit) - float64(clock)
						stats.ClassCounts[ClassCacheHit]++
						stats.ClassCycles[ClassCacheHit] += d
						e.tTotal += d
						e.refs++
						clock += latHit
					}
				} else {
					// Write hit on a non-Modified line: ownership upgrade
					// through the protocol, on float clocks.
					stats.Refs++
					fc := float64(clock)
					done := e.sys.accessRest(bi, addr, true, fc, cache.State(w&3), true)
					e.tTotal += done - fc
					e.refs++
					clock = C(done)
				}
			} else {
				stats.Refs++
				fc := float64(clock)
				done := e.sys.accessRest(bi, addr, kind == trace.OpWrite, fc, cache.Invalid, false)
				e.tTotal += done - fc
				e.refs++
				clock = C(done)
			}
			// Batching: keep executing this processor while it is still the
			// earliest — exactly equivalent to re-scanning and picking it
			// again, minus the scan.
			if clock > sc || (clock == sc && bi >= si) {
				clocks[bi] = clock
				nexts[bi] = next
				// The scan key is a lower bound on this processor's next
				// shared-machinery touch, not its clock: peeking the next
				// op's compute gap lifts the key past the pure-compute
				// stretch, which lengthens every peer's batching limit and
				// breaks the exact clock ties that force park ping-pong.
				// Sound because retirement order is still (time, cpu) over
				// actual transactions — a key below the true next
				// transaction time only costs batching, never correctness.
				key := clock
				if next < len(ops) {
					key += C(ops[next].N) * latInstr
				} else {
					key = e.key(bi, clock) // the peek crosses into the next block
				}
				ready[bi] = key
				e.hitN = hn
				continue outer
			}
		}
		clocks[bi] = clock
		nexts[bi] = next
	}
}

// release opens the barrier once every processor has arrived: everyone
// resumes at the latest arrival, and the closing phase is recorded.
func (e *engine[C]) release() {
	e.flush()
	e.res.Barriers++
	// Wait is summed in CPU index order, as the reference executor sums it.
	// Integer sums are exact, so converting the total reproduces the float
	// term-by-term sum bit for bit.
	var wait C
	for i := range e.clocks {
		wait += e.barrierMax - e.clocks[i]
		e.clocks[i] = e.barrierMax
		// Every processor restarts at the same instant; keying on the first
		// contention time instead dissolves that all-way tie.
		e.ready[i] = e.key(i, e.barrierMax)
	}
	e.res.BarrierWaitCycles += float64(wait)
	cur := e.sys.Stats()
	e.res.Phases = append(e.res.Phases, PhaseStats{
		Index:       len(e.res.Phases),
		StartCycle:  float64(e.phaseStart),
		EndCycle:    float64(e.barrierMax),
		BarrierWait: float64(wait),
		Stats:       cur.Minus(e.phaseBase),
	})
	e.phaseStart = e.barrierMax
	e.phaseBase = cur
	e.barrierMax = 0
	e.arrived = 0
}

// flush applies the deferred private hits to the counters (stats.Refs,
// hit-class count and cycles, tTotal, refs). It must run before anything
// reads them: phase snapshots and the final result.
func (e *engine[C]) flush() {
	total := e.hitN
	e.hitN = 0
	if total != 0 {
		stats := &e.sys.stats
		stats.Refs += total
		stats.ClassCounts[ClassCacheHit] += total
		d := float64(total) * e.sys.lat.CacheHit
		stats.ClassCycles[ClassCacheHit] += d
		e.tTotal += d
		e.refs += total
	}
}

// finish closes the run: the tail phase after the last barrier (if any)
// and the derived result fields.
func (e *engine[C]) finish(instructions uint64) (RunResult, error) {
	if e.arrived > 0 {
		return RunResult{}, fmt.Errorf("backend: %d processors stuck at a barrier", e.arrived)
	}
	e.flush()
	e.res.WallCycles = float64(e.wall)
	appendTailPhase(&e.res, e.sys, float64(e.phaseStart), e.phaseBase)
	assemble(&e.res, instructions, e.refs, e.tTotal, e.sys)
	return e.res, nil
}

// appendTailPhase records the work after the last barrier (if any) as a
// final phase entry.
func appendTailPhase(res *RunResult, sys *System, phaseStart float64, phaseBase Stats) {
	if tail := sys.Stats().Minus(phaseBase); tail.Refs > 0 || res.WallCycles > phaseStart {
		res.Phases = append(res.Phases, PhaseStats{
			Index:      len(res.Phases),
			StartCycle: phaseStart,
			EndCycle:   res.WallCycles,
			Stats:      tail,
		})
	}
}

// assemble fills the derived result fields from the run's final counters.
// The engine and the reference executor both funnel through it so the
// derived arithmetic is shared and bit-identical.
func assemble(res *RunResult, instructions, refs uint64, tTotal float64, sys *System) {
	res.Instructions = instructions
	res.MemoryRefs = refs
	if instructions > 0 {
		res.EInstr = res.WallCycles / float64(instructions)
	}
	res.Seconds = res.EInstr / (sys.Config().ClockMHz * 1e6)
	if refs > 0 {
		res.AvgT = tTotal / float64(refs)
	}
	res.Stats = sys.Stats()
	for c := 0; c < int(numClasses); c++ {
		if res.Stats.Refs > 0 {
			res.ClassShare[c] = float64(res.Stats.ClassCounts[c]) / float64(res.Stats.Refs)
		}
	}
	if res.Stats.TotalBusCycles > 0 {
		res.CoherenceShare = res.Stats.CoherenceBusCycles / res.Stats.TotalBusCycles
	}
	if res.WallCycles > 0 {
		if sys.netBus != nil {
			res.NetUtilization = sys.netBus.Utilization(res.WallCycles)
		} else if len(sys.netPorts) > 0 {
			var busy float64
			for _, p := range sys.netPorts {
				busy += p.BusyCycles()
			}
			res.NetUtilization = busy / (res.WallCycles * float64(len(sys.netPorts)))
		}
	}
}

// Simulate is the one-call convenience wrapper: build the system for cfg
// and drive it with the trace.
func Simulate(tr *trace.Trace, cfg machine.Config) (RunResult, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return RunResult{}, err
	}
	return Run(tr, sys)
}
