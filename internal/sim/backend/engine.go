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

// wheelWidth sizes the scheduler's bucket granularity from the latency
// table: the ready queue reorders only when a processor leaves the
// private-hit fast path, so consecutive pops are separated by at least the
// cheapest cross-processor transaction.
func wheelWidth(sys *System) float64 {
	if w := sys.lat.RemoteCache; w > 1 {
		return w
	}
	return 1
}

// scanMaxProcs is the processor count up to which the sequential engine
// schedules with a flat min-scan over per-CPU clocks instead of the event
// wheel. The ready queue holds at most one entry per processor, so at small
// counts a register-resident scan finding the minimum and runner-up in one
// pass beats any bucketed or tree structure (see BenchmarkScheduler*); the
// wheel's O(1) push/pop only wins once the scan's O(nproc) pass grows past
// its constants.
const scanMaxProcs = 32

// makeAccess builds the engine's memory-reference fast path: a closure that
// executes one compiled reference op, probing the processor's private cache
// inline through the flattened cache.Hot view (zero calls on the hit path)
// and falling through to the System's coherence machinery only when the
// protocol is actually involved. The bookkeeping — stats.Refs, cache
// tick/LRU/hit counters, cache-hit class accounting, tTotal and refs —
// reproduces sys.Access word for word, so every engine built on it stays
// bit-identical to the reference executor. When any cache's geometry has no
// Hot view the closure degrades to plain sys.Access.
func makeAccess(sys *System, tTotal *float64, refs *uint64) func(cpu int32, arg uint64, clock float64) float64 {
	hots, ok := sysHots(sys)
	if !ok {
		return func(cpu int32, arg uint64, clock float64) float64 {
			done := sys.Access(int(cpu), arg>>2, arg&3 == trace.OpWrite, clock)
			*tTotal += done - clock
			*refs++
			return done
		}
	}
	latHit := sys.lat.CacheHit
	return func(cpu int32, arg uint64, clock float64) float64 {
		addr := arg >> 2
		write := arg&3 == trace.OpWrite
		sys.stats.Refs++
		h := &hots[cpu]
		tag := addr >> h.Shift
		base := (tag & h.Mask) << 1
		// Two-way probe per the Hot contract; w ends 0 on a miss, else
		// holds the matching way.
		w := h.Ways[base]
		if w&3 != 0 && w>>3 == tag {
			h.Ways[base] = w &^ 4
		} else if w1 := h.Ways[base+1]; w1&3 != 0 && w1>>3 == tag {
			h.Ways[base] = w | 4
			w = w1
		} else {
			w = 0
		}
		if w != 0 {
			*h.Hits++
			st := cache.State(w & 3)
			if !write || st == cache.Modified {
				done := clock + latHit
				sys.stats.ClassCounts[ClassCacheHit]++
				sys.stats.ClassCycles[ClassCacheHit] += done - clock
				*tTotal += done - clock
				*refs++
				return done
			}
			// Hit, but a write to a non-Modified line: ownership upgrade
			// through the protocol.
			done := sys.accessRest(int(cpu), addr, write, clock, st, true)
			*tTotal += done - clock
			*refs++
			return done
		}
		*h.Misses++
		done := sys.accessRest(int(cpu), addr, write, clock, cache.Invalid, false)
		*tTotal += done - clock
		*refs++
		return done
	}
}

// sysHots collects the flattened fast-path views of every processor cache;
// ok is false when any geometry has none, in which case engines stay on the
// Lookup-based access path.
func sysHots(sys *System) ([]cache.Hot, bool) {
	hots := make([]cache.Hot, len(sys.caches))
	for i, c := range sys.caches {
		h, ok := c.Hot()
		if !ok {
			return nil, false
		}
		hots[i] = h
	}
	return hots, true
}

// Run drives the system with the trace, interleaving processors in global
// time order, and returns the execution summary. The trace must have one
// stream per simulated processor and balanced barriers.
//
// The engine executes each stream's compiled op form (trace.Op: a compute
// gap fused with the reference or barrier that follows it) with event-run
// batching: after picking the earliest processor, its ops keep executing
// inline while its clock stays ahead of the next ready processor, so a long
// compute/cache-hit run between barriers costs one scheduling decision
// instead of one per event. The ready queue is a flat min-scan up to
// scanMaxProcs processors and a calendar/event-wheel beyond that; both
// retire work in identical (clock, cpu) order, and results are identical to
// the unbatched reference executor (see TestRunMatchesReference).
func Run(tr *trace.Trace, sys *System) (RunResult, error) {
	if err := checkTrace(tr, sys); err != nil {
		return RunResult{}, err
	}
	return runSeq(tr, sys)
}

// runSeq is the sequential engine behind Run; RunParallel falls back to it
// for a single worker. The trace must already be validated.
func runSeq(tr *trace.Trace, sys *System) (RunResult, error) {
	if tr.NumCPU() <= scanMaxProcs {
		// The integer-clock specialization needs every latency integral and
		// every cache geometry flattenable; both hold for all stock machine
		// configurations. Exotic setups take the float path.
		if hots, ok := sysHots(sys); ok && sys.exactLatencies() {
			return runSeqScanInt(tr, sys, hots)
		}
		return runSeqScan(tr, sys)
	}
	return runSeqWheel(tr, sys)
}

// runSeqWheel is the event-wheel variant of the sequential engine, for
// processor counts past the scan crossover. It retires work in the same
// (clock, cpu) order as runSeqScan with the same arithmetic, so the two are
// bit-identical (TestWheelEngineMatchesScan).
func runSeqWheel(tr *trace.Trace, sys *System) (RunResult, error) {
	want := tr.NumCPU()
	clocks := make([]float64, want)
	nexts := make([]int, want)
	// pends[cpu] holds the action half of an op whose compute advance has
	// been applied but whose shared access must wait for global order (the
	// batching limit was hit between the two); 0 = none.
	pends := make([]uint64, want)
	opsPer := make([][]trace.Op, want)
	for i := range opsPer {
		var err error
		if opsPer[i], err = tr.Streams[i].Ops(); err != nil {
			return RunResult{}, fmt.Errorf("backend: %w", err)
		}
	}

	w := newWheel(wheelWidth(sys))
	for i := 0; i < want; i++ {
		w.push(heapEnt{cpu: int32(i)})
	}

	var res RunResult
	res.Config = sys.Config().Name
	if nb := tr.Streams[0].Barriers(); nb > 0 {
		// One phase per barrier plus the tail; pre-sizing skips the append
		// growth chain (PhaseStats is a couple hundred bytes).
		res.Phases = make([]PhaseStats, 0, nb+1)
	}
	arrived := 0
	var barrierMax float64
	var phaseStart float64
	var phaseBase Stats
	var tTotal float64
	var refs uint64
	latInstr := sys.lat.Instruction
	access := makeAccess(sys, &tTotal, &refs)

	release := func() {
		// All processors arrived: everyone resumes at the latest arrival.
		// Wait is summed in CPU index order — the same order every engine
		// (sequential, reference, parallel) uses, so the float sum is
		// bit-identical across them.
		res.Barriers++
		var wait float64
		for i := range clocks {
			wait += barrierMax - clocks[i]
			clocks[i] = barrierMax
			w.push(heapEnt{clock: barrierMax, cpu: int32(i)})
		}
		res.BarrierWaitCycles += wait
		cur := sys.Stats()
		res.Phases = append(res.Phases, PhaseStats{
			Index:       len(res.Phases),
			StartCycle:  phaseStart,
			EndCycle:    barrierMax,
			BarrierWait: wait,
			Stats:       cur.Minus(phaseBase),
		})
		phaseStart = barrierMax
		phaseBase = cur
		barrierMax = 0
	}

outer:
	for w.n > 0 {
		ent := w.pop()
		cpu := ent.cpu
		clock := clocks[cpu]
		next := nexts[cpu]
		ops := opsPer[cpu]
		var limit heapEnt
		bounded := w.n > 0
		if bounded {
			limit = w.peek()
		}
		if p := pends[cpu]; p != 0 {
			// Resume the parked action of a half-executed op. Being popped
			// as the queue minimum is exactly the order guarantee it was
			// parked to wait for.
			pends[cpu] = 0
			clock = access(cpu, p, clock)
			if bounded && !entLess(heapEnt{clock: clock, cpu: cpu}, limit) {
				clocks[cpu] = clock
				w.push(heapEnt{clock: clock, cpu: cpu})
				continue outer
			}
		}
		for {
			if next >= len(ops) {
				// Stream exhausted; the processor halts at its current clock.
				if clock > res.WallCycles {
					res.WallCycles = clock
				}
				break
			}
			op := ops[next]
			next++
			clock += float64(op.N) * latInstr
			switch op.Arg & 3 {
			case trace.OpNone:
				// Pure compute advances only this processor's clock; no
				// ordering against the rest of the machine is needed.
				continue
			case trace.OpBarrier:
				// Arrival bookkeeping commutes (max over clocks), so no
				// ordering is needed here either.
				if clock > barrierMax {
					barrierMax = clock
				}
				clocks[cpu] = clock
				nexts[cpu] = next
				arrived++
				if arrived == want {
					arrived = 0
					release()
				}
				continue outer
			}
			// Memory reference at time clock: it touches shared machinery,
			// so it must wait until this processor is globally earliest.
			if bounded && !entLess(heapEnt{clock: clock, cpu: cpu}, limit) {
				pends[cpu] = op.Arg
				clocks[cpu] = clock
				nexts[cpu] = next
				w.push(heapEnt{clock: clock, cpu: cpu})
				continue outer
			}
			clock = access(cpu, op.Arg, clock)
			// Batching: keep executing this processor while it is still the
			// earliest — exactly equivalent to pushing it back and popping
			// it again, minus the two queue operations.
			if bounded && !entLess(heapEnt{clock: clock, cpu: cpu}, limit) {
				clocks[cpu] = clock
				nexts[cpu] = next
				w.push(heapEnt{clock: clock, cpu: cpu})
				continue outer
			}
		}
		clocks[cpu] = clock
		nexts[cpu] = next
	}
	if arrived > 0 {
		return RunResult{}, fmt.Errorf("backend: %d processors stuck at a barrier", arrived)
	}
	appendTailPhase(&res, sys, phaseStart, phaseBase)
	assemble(&res, tr.Instructions(), refs, tTotal, sys)
	return res, nil
}

// runSeqScan is the small-configuration variant of the sequential engine:
// the ready queue is the per-CPU clock array itself, and each scheduling
// decision is one pass over it computing the (clock, cpu) minimum and
// runner-up. With at most one queue entry per processor the whole queue fits
// in a few cache lines, so the scan beats both the binary heap it replaced
// and the event wheel up to scanMaxProcs (BenchmarkScheduler*). The
// execution structure mirrors runSeqWheel step for step — same batching
// limit, same pend parking, same accounting order — so the two engines are
// bit-identical (TestWheelEngineMatchesScan).
//
//chc:hotpath
func runSeqScan(tr *trace.Trace, sys *System) (RunResult, error) {
	want := tr.NumCPU()
	inf := math.Inf(1)
	// ready[cpu] is the clock at which the processor next contends for the
	// machine; +Inf parks it (blocked at a barrier, or stream exhausted).
	// clocks[cpu] is its last known clock regardless of parking: release
	// needs arrival clocks after ready has been parked.
	ready := make([]float64, want)
	clocks := make([]float64, want)
	nexts := make([]int, want)
	opsPer := make([][]trace.Op, want)
	for i := range opsPer {
		var err error
		if opsPer[i], err = tr.Streams[i].Ops(); err != nil {
			//chc:allow hotalloc -- cold path: stream decode failed, the run is over
			return RunResult{}, fmt.Errorf("backend: %w", err)
		}
	}

	var res RunResult
	res.Config = sys.Config().Name
	if nb := tr.Streams[0].Barriers(); nb > 0 {
		res.Phases = make([]PhaseStats, 0, nb+1)
	}
	live := want
	arrived := 0
	var barrierMax float64
	var phaseStart float64
	var phaseBase Stats
	var tTotal float64
	var refs uint64
	latInstr := sys.lat.Instruction
	latHit := sys.lat.CacheHit
	access := makeAccess(sys, &tTotal, &refs)
	// hot enables the in-loop flattened probe (no indirect call per hit);
	// with exotic geometry every reference goes through the access closure.
	// (With integral latencies runSeq routes to runSeqScanInt instead, so
	// this variant only ever runs with fractional latencies somewhere in the
	// table — per-hit accounting must be immediate.)
	hots, hot := sysHots(sys)
	stats := &sys.stats

	release := func() {
		// All processors arrived: everyone resumes at the latest arrival.
		// Wait is summed in CPU index order — the same order every engine
		// uses, so the float sum is bit-identical across them.
		res.Barriers++
		var wait float64
		for i := range clocks {
			wait += barrierMax - clocks[i]
			clocks[i] = barrierMax
			ready[i] = barrierMax
		}
		live = want
		res.BarrierWaitCycles += wait
		cur := sys.Stats()
		res.Phases = append(res.Phases, PhaseStats{
			Index:       len(res.Phases),
			StartCycle:  phaseStart,
			EndCycle:    barrierMax,
			BarrierWait: wait,
			Stats:       cur.Minus(phaseBase),
		})
		phaseStart = barrierMax
		phaseBase = cur
		barrierMax = 0
	}

outer:
	for live > 0 {
		// One pass over the clock array: bi/bc is the (clock, cpu) minimum,
		// si/sc the runner-up. Only strict < displaces, so the lowest CPU
		// index wins ties — exactly entLess order. Parked processors sit at
		// +Inf and lose every comparison. A runner-up at +Inf means the
		// picked processor is effectively alone; entLess against the +Inf
		// limit is then always true, so no separate "unbounded" flag is
		// needed anywhere below.
		bi := 0
		bc := ready[0]
		si := int32(0)
		sc := inf
		for i := 1; i < want; i++ {
			c := ready[i]
			if c < bc {
				sc, si = bc, int32(bi)
				bc, bi = c, i
			} else if c < sc {
				sc, si = c, int32(i)
			}
		}
		cpu := int32(bi)
		// clocks[bi], not the scan key: a processor parked on a gated
		// reference keeps its committed clock here while ready[bi] holds the
		// reference's contention time (see the park below). For every other
		// processor the two are equal.
		clock := clocks[bi]
		next := nexts[bi]
		ops := opsPer[bi]
		limit := heapEnt{clock: sc, cpu: si}
		for {
			if next >= len(ops) {
				// Stream exhausted; the processor halts at its current clock.
				if clock > res.WallCycles {
					res.WallCycles = clock
				}
				ready[bi] = inf
				live--
				break
			}
			op := ops[next]
			next++
			kind := op.Arg & 3
			if kind == trace.OpNone {
				// Pure compute advances only this processor's clock; no
				// ordering against the rest of the machine is needed.
				clock += float64(op.N) * latInstr
				continue
			}
			if kind == trace.OpBarrier {
				clock += float64(op.N) * latInstr
				// Arrival bookkeeping commutes (max over clocks), so no
				// ordering is needed here either.
				if clock > barrierMax {
					barrierMax = clock
				}
				clocks[bi] = clock
				nexts[bi] = next
				ready[bi] = inf
				live--
				arrived++
				if arrived == want {
					arrived = 0
					release()
				}
				continue outer
			}
			// Memory reference at time t: it touches shared machinery, so it
			// must wait until this processor is globally earliest. Parking
			// rewinds next rather than saving a half-executed op: the compute
			// advance is recomputed from the same committed clock on resume
			// (bit-identical float add), which lets the resumed reference run
			// through the flattened fast path below instead of a slow-path
			// closure. Being picked as the scan minimum with ready[bi] = t
			// implies (t, cpu) precedes the new runner-up limit, so the
			// re-checked gate always passes on resume.
			t := clock + float64(op.N)*latInstr
			if !entLess(heapEnt{clock: t, cpu: cpu}, limit) {
				nexts[bi] = next - 1
				clocks[bi] = clock
				ready[bi] = t
				continue outer
			}
			clock = t
			if hot {
				// Flattened private-hit fast path: the two-way probe from
				// cache.Hot inlined into the loop, no call on a hit.
				addr := op.Arg >> 2
				h := &hots[bi]
				tag := addr >> h.Shift
				base := (tag & h.Mask) << 1
				w := h.Ways[base]
				if w&3 != 0 && w>>3 == tag {
					h.Ways[base] = w &^ 4
				} else if w1 := h.Ways[base+1]; w1&3 != 0 && w1>>3 == tag {
					h.Ways[base] = w | 4
					w = w1
				} else {
					w = 0
				}
				if w != 0 {
					st := cache.State(w & 3)
					if kind != trace.OpWrite || st == cache.Modified {
						*h.Hits++
						stats.Refs++
						done := clock + latHit
						stats.ClassCounts[ClassCacheHit]++
						stats.ClassCycles[ClassCacheHit] += done - clock
						tTotal += done - clock
						refs++
						clock = done
					} else {
						// Write hit on a non-Modified line: ownership
						// upgrade through the protocol.
						*h.Hits++
						stats.Refs++
						done := sys.accessRest(bi, addr, true, clock, st, true)
						tTotal += done - clock
						refs++
						clock = done
					}
				} else {
					*h.Misses++
					stats.Refs++
					done := sys.accessRest(bi, addr, kind == trace.OpWrite, clock, cache.Invalid, false)
					tTotal += done - clock
					refs++
					clock = done
				}
			} else {
				clock = access(cpu, op.Arg, clock)
			}
			// Batching: keep executing this processor while it is still the
			// earliest — exactly equivalent to re-scanning and picking it
			// again, minus the scan.
			if !entLess(heapEnt{clock: clock, cpu: cpu}, limit) {
				clocks[bi] = clock
				nexts[bi] = next
				ready[bi] = clock
				continue outer
			}
		}
		clocks[bi] = clock
		nexts[bi] = next
	}
	if arrived > 0 {
		//chc:allow hotalloc -- cold path: malformed trace detected after the loop exits
		return RunResult{}, fmt.Errorf("backend: %d processors stuck at a barrier", arrived)
	}
	appendTailPhase(&res, sys, phaseStart, phaseBase)
	assemble(&res, tr.Instructions(), refs, tTotal, sys)
	return res, nil
}

// runSeqScanInt is the integer-clock specialization of the scan engine, the
// production fast path: it requires every latency in the table to be
// integral (sys.exactLatencies) and every private cache to expose a
// flattened Hot view. Under those conditions every clock value, barrier
// wait, and cycle accumulator the simulation can produce is an exact
// integer far below 2^53, so the engine runs its entire serial dependency
// chain — compute advance, gate compare, min-scan — in uint64 arithmetic
// (1-cycle adds and compares against the float chain's 4-cycle FMA/compare
// latencies) and converts to float64 only at observation points: protocol
// calls, phase records, and the final result. Each conversion is exact in
// both directions, so the results are bit-identical to runSeqScan, the
// wheel engine, and the unbatched reference executor
// (TestRunMatchesReference).
//
// The same exactness licenses deferred hit accounting: hitNs[cpu] counts
// private hits whose counter updates (cache Hits, stats.Refs, hit-class
// count and cycles, tTotal, refs) haven't been applied yet; flush applies
// them in bulk and must run before anything reads those accumulators (phase
// snapshots and final assembly). See DESIGN.md ("Exact integer clocks") for
// the full argument.
//
//chc:hotpath
func runSeqScanInt(tr *trace.Trace, sys *System, hots []cache.Hot) (RunResult, error) {
	want := tr.NumCPU()
	const infu = math.MaxUint64
	// ready[cpu] is the clock at which the processor next contends for the
	// machine; infu parks it (blocked at a barrier, or stream exhausted).
	// clocks[cpu] is its committed clock: for a processor parked on a gated
	// reference, ready holds the reference's contention time while clocks
	// stays at the clock the compute advance will be recomputed from.
	ready := make([]uint64, want)
	clocks := make([]uint64, want)
	nexts := make([]int, want)
	opsPer := make([][]trace.Op, want)
	for i := range opsPer {
		var err error
		if opsPer[i], err = tr.Streams[i].Ops(); err != nil {
			//chc:allow hotalloc -- cold path: stream decode failed, the run is over
			return RunResult{}, fmt.Errorf("backend: %w", err)
		}
	}

	var res RunResult
	res.Config = sys.Config().Name
	if nb := tr.Streams[0].Barriers(); nb > 0 {
		res.Phases = make([]PhaseStats, 0, nb+1)
	}
	live := want
	arrived := 0
	var barrierMax uint64
	var phaseStart uint64
	var phaseBase Stats
	var tTotal float64
	var refs uint64
	var wall uint64
	latInstr := uint64(sys.lat.Instruction)
	latHit := uint64(sys.lat.CacheHit)
	fLatHit := sys.lat.CacheHit
	stats := &sys.stats
	hitNs := make([]uint64, want)
	flush := func() {
		var total uint64
		for i, n := range hitNs {
			if n != 0 {
				*hots[i].Hits += n
				hitNs[i] = 0
				total += n
			}
		}
		if total != 0 {
			stats.Refs += total
			stats.ClassCounts[ClassCacheHit] += total
			d := float64(total) * fLatHit
			stats.ClassCycles[ClassCacheHit] += d
			tTotal += d
			refs += total
		}
	}

	release := func() {
		flush()
		// All processors arrived: everyone resumes at the latest arrival.
		// The integer wait sum is exact, so converting the total reproduces
		// the float engines' term-by-term sum bit for bit.
		res.Barriers++
		var wait uint64
		for i := range clocks {
			wait += barrierMax - clocks[i]
			clocks[i] = barrierMax
			// Seed the scan key past the first compute gap (see the
			// batch-end park): every processor restarts at the same instant,
			// and keying on the first contention time instead dissolves that
			// all-way tie.
			key := barrierMax
			if n, ops := nexts[i], opsPer[i]; n < len(ops) {
				key += ops[n].N * latInstr
			}
			ready[i] = key
		}
		live = want
		res.BarrierWaitCycles += float64(wait)
		cur := sys.Stats()
		res.Phases = append(res.Phases, PhaseStats{
			Index:       len(res.Phases),
			StartCycle:  float64(phaseStart),
			EndCycle:    float64(barrierMax),
			BarrierWait: float64(wait),
			Stats:       cur.Minus(phaseBase),
		})
		phaseStart = barrierMax
		phaseBase = cur
		barrierMax = 0
	}

outer:
	for live > 0 {
		// One pass over the clock array: bi/bc is the (clock, cpu) minimum,
		// si/sc the runner-up; lowest index wins ties, matching entLess
		// order. Parked processors sit at infu and lose every comparison.
		bi := 0
		bc := ready[0]
		si := 0
		sc := uint64(infu)
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
		ops := opsPer[bi]
		// hn mirrors hitNs[bi] in a register for the whole scheduling round;
		// every exit path below stores it back before the slot can be read
		// (flush) or another round begins.
		hn := hitNs[bi]
		h := &hots[bi]
		shift := h.Shift
		mask := h.Mask
		ways := h.Ways
		for {
			if next >= len(ops) {
				// Stream exhausted; the processor halts at its current clock.
				if clock > wall {
					wall = clock
				}
				ready[bi] = infu
				hitNs[bi] = hn
				live--
				break
			}
			op := ops[next]
			next++
			kind := op.Arg & 3
			if kind == trace.OpNone {
				// Pure compute advances only this processor's clock; no
				// ordering against the rest of the machine is needed.
				clock += op.N * latInstr
				continue
			}
			if kind == trace.OpBarrier {
				clock += op.N * latInstr
				// Arrival bookkeeping commutes (max over clocks), so no
				// ordering is needed here either.
				if clock > barrierMax {
					barrierMax = clock
				}
				clocks[bi] = clock
				nexts[bi] = next
				ready[bi] = infu
				hitNs[bi] = hn
				live--
				arrived++
				if arrived == want {
					arrived = 0
					release()
				}
				continue outer
			}
			// Memory reference at time t: it touches shared machinery, so it
			// must wait until this processor is globally earliest. Parking
			// rewinds next rather than saving a half-executed op: the
			// compute advance is recomputed from the same committed clock on
			// resume, which lets the resumed reference run through the
			// flattened fast path below. Being picked as the scan minimum
			// with ready[bi] = t implies (t, cpu) precedes the new runner-up
			// limit, so the re-checked gate always passes on resume.
			t := clock + op.N*latInstr
			if t > sc || (t == sc && bi >= si) {
				nexts[bi] = next - 1
				clocks[bi] = clock
				ready[bi] = t
				hitNs[bi] = hn
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
					// Deferred hit accounting: one counter bump and one
					// integer add per hit; flush settles the books.
					hn++
					clock += latHit
				} else {
					// Write hit on a non-Modified line: ownership upgrade
					// through the protocol, on float clocks.
					*h.Hits++
					stats.Refs++
					fc := float64(clock)
					done := sys.accessRest(bi, addr, true, fc, cache.State(w&3), true)
					tTotal += done - fc
					refs++
					clock = uint64(done)
				}
			} else {
				*h.Misses++
				stats.Refs++
				fc := float64(clock)
				done := sys.accessRest(bi, addr, kind == trace.OpWrite, fc, cache.Invalid, false)
				tTotal += done - fc
				refs++
				clock = uint64(done)
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
					key += ops[next].N * latInstr
				}
				ready[bi] = key
				hitNs[bi] = hn
				continue outer
			}
		}
		clocks[bi] = clock
		nexts[bi] = next
	}
	if arrived > 0 {
		//chc:allow hotalloc -- cold path: malformed trace detected after the loop exits
		return RunResult{}, fmt.Errorf("backend: %d processors stuck at a barrier", arrived)
	}
	flush()
	res.WallCycles = float64(wall)
	appendTailPhase(&res, sys, float64(phaseStart), phaseBase)
	assemble(&res, tr.Instructions(), refs, tTotal, sys)
	return res, nil
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
// Every engine (sequential, reference, parallel, streaming) funnels through
// it so the derived arithmetic is shared and bit-identical.
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
