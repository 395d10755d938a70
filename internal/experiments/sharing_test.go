package experiments

import (
	"slices"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// measureSharingMap is the Go-map implementation MeasureSharing had before
// its open-addressing table, kept as the reference FuzzMeasureSharing
// compares against.
func measureSharingMap(tr *trace.Trace, procsPerNode int) SharingStats {
	if procsPerNode < 1 {
		procsPerNode = 1
	}
	type blockState struct {
		home  int
		valid uint64
		seen  uint64
	}
	blocks := map[uint64]blockState{}
	var refs, remote, coherence uint64
	idx := make([]int, len(tr.Streams))
	for {
		progressed := false
		for cpu, s := range tr.Streams {
			if idx[cpu] >= len(s.Events) {
				continue
			}
			e := s.Events[idx[cpu]]
			idx[cpu]++
			progressed = true
			if e.Kind != trace.Read && e.Kind != trace.Write {
				continue
			}
			node := cpu / procsPerNode
			bit := uint64(1) << uint(node%64)
			block := e.Addr / backend.DSMBlockSize
			st, ok := blocks[block]
			if !ok {
				st = blockState{home: node}
			}
			refs++
			if st.home != node {
				remote++
			}
			if st.seen&bit != 0 && st.valid&bit == 0 {
				coherence++
			}
			st.seen |= bit
			if e.Kind == trace.Write {
				st.valid = bit
			} else {
				st.valid |= bit
			}
			blocks[block] = st
		}
		if !progressed {
			break
		}
	}
	if refs == 0 {
		return SharingStats{}
	}
	return SharingStats{
		RemoteShare:       float64(remote) / float64(refs),
		CoherenceMissRate: float64(coherence) / float64(refs),
	}
}

// FuzzMeasureSharing checks MeasureSharing against the map reference on
// random multi-CPU traces whose addresses span the whole simulable range.
// Each event is two bytes: CPU and kind from the first, and from the
// second one of a few block-sized neighbourhoods drawn from seed (so
// blocks are shared) plus an offset within it.
func FuzzMeasureSharing(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(1), []byte{0, 0, 1, 0, 0x10, 0, 1, 0})
	f.Add(uint64(0xdeadbeef), uint8(8), uint8(2), []byte("a shared block, written and re-read by every machine in turn"))
	f.Add(uint64(7), uint8(16), uint8(4), []byte{3, 250, 19, 251, 35, 7, 0x2f, 8, 0x11, 9, 0x21, 1, 5, 250})
	f.Fuzz(func(t *testing.T, seed uint64, ncpu, perNode uint8, data []byte) {
		ncpu = 1 + ncpu%16
		pn := 1 + int(perNode%4)
		var pool [8]uint64
		x := seed
		for i := range pool {
			x = x*6364136223846793005 + 1442695040888963407
			pool[i] = x % (trace.MaxAddr + 1)
		}
		tr := trace.New(int(ncpu))
		for i := 0; i+1 < len(data); i += 2 {
			s := tr.Streams[int(data[i]&0x0f)%int(ncpu)]
			addr := min(pool[data[i+1]&7]+uint64(data[i+1]>>3)*32, trace.MaxAddr)
			switch data[i] >> 4 & 3 {
			case 0, 1:
				s.AddRead(addr)
			case 2:
				s.AddWrite(addr)
			default:
				s.AddCompute(1)
			}
		}
		want := measureSharingMap(tr, pn)
		if got := MeasureSharing(tr, pn); got != want {
			t.Fatalf("MeasureSharing(%d CPUs, %d per node) = %+v, reference %+v", ncpu, pn, got, want)
		}
		// Streamed in any emission order that keeps each processor's own
		// order — here one processor's whole stream after another's, and a
		// seed-drawn interleaving of runs — the accumulator must agree,
		// under a second grouping sharing its order buffer too.
		pn2 := 1 + int(seed%uint64(ncpu))
		want2 := MeasureSharing(tr, pn2)
		for _, order := range []string{"sequential", "interleaved"} {
			a := newSharingAccumulator(int(ncpu), pn, pn2)
			emitInOrder(a, tr, seed, order == "interleaved")
			got := a.stats()
			if got[0] != want {
				t.Fatalf("%s stream (%d CPUs, %d per node) = %+v, MeasureSharing %+v", order, ncpu, pn, got[0], want)
			}
			if got[1] != want2 {
				t.Fatalf("%s stream (%d CPUs, %d per node) = %+v, MeasureSharing %+v", order, ncpu, pn2, got[1], want2)
			}
		}
	})
}

// emitInOrder emits tr's events into sink keeping each processor's order.
// Sequential emits the processors one after another; otherwise a generator
// seeded by seed picks the next processor and the length of its run. Some
// compute gaps arrive split in two, or after an empty gap, as generators
// may emit them before a Trace coalesces them.
func emitInOrder(sink trace.Sink, tr *trace.Trace, seed uint64, interleave bool) {
	next := make([]int, tr.NumCPU())
	x := seed | 1
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	emit := func(cpu int, e trace.Event) {
		if e.Kind == trace.Compute && rnd(2) == 0 {
			sink.Emit(cpu, trace.Event{Kind: trace.Compute})
			if e.N > 1 {
				sink.Emit(cpu, trace.Event{Kind: trace.Compute, N: e.N - 1})
				e.N = 1
			}
		}
		sink.Emit(cpu, e)
	}
	for {
		var live []int
		for cpu, s := range tr.Streams {
			if next[cpu] < len(s.Events) {
				live = append(live, cpu)
			}
		}
		if len(live) == 0 {
			return
		}
		cpu, run := live[0], len(tr.Streams[live[0]].Events)
		if interleave {
			cpu, run = live[rnd(len(live))], 1+rnd(8)
		}
		for s := tr.Streams[cpu]; run > 0 && next[cpu] < len(s.Events); run-- {
			emit(cpu, s.Events[next[cpu]])
			next[cpu]++
		}
	}
}

// TestMeasureSharingTableGrowth drives more distinct blocks than the
// table's initial size, interleaved across machines, through both
// implementations.
func TestMeasureSharingTableGrowth(t *testing.T) {
	tr := trace.New(6)
	for i := uint64(0); i < 5000; i++ {
		cpu := int(i*7) % 6
		addr := (i * 0x9E3779B97F4A7C15) % (trace.MaxAddr + 1)
		tr.Streams[cpu].AddRead(addr)
		tr.Streams[(cpu+1)%6].AddWrite(addr)
		tr.Streams[(cpu+3)%6].AddRead(addr)
	}
	for _, pn := range []int{1, 2, 3} {
		if got, want := MeasureSharing(tr, pn), measureSharingMap(tr, pn); got != want {
			t.Errorf("per node %d: %+v, reference %+v", pn, got, want)
		}
	}
}

// BenchmarkMeasureSharing is the reproduction's sharing layer: each suite
// kernel under the five distinct (processors, processors per machine)
// groupings of the catalog's cluster configurations. Traces are generated
// outside the timer.
func BenchmarkMeasureSharing(b *testing.B) {
	type job struct {
		tr      *trace.Trace
		perNode int
	}
	var jobs []job
	seen := map[[2]int]bool{}
	for _, cfg := range machine.Catalog() {
		if k := [2]int{cfg.TotalProcs(), cfg.Procs}; cfg.N > 1 && !seen[k] {
			seen[k] = true
			for _, w := range workloads.Suite(workloads.ScaleSmall) {
				tr, err := workloads.GenerateTrace(w, k[0])
				if err != nil {
					b.Fatal(err)
				}
				jobs = append(jobs, job{tr, k[1]})
			}
		}
	}
	if len(seen) != 5 {
		b.Fatalf("%d catalog groupings, want 5", len(seen))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			MeasureSharing(j.tr, j.perNode)
		}
	}
}

// TestSharingAccumulatorCoalescesComputeGaps: a compute gap emitted in two
// pieces, or after an empty gap, takes one stream position, and an event of
// unknown kind none, as in a materialized Trace. Counting either would move
// processor 0's write out from between processor 1's reads and lose the
// coherence miss.
func TestSharingAccumulatorCoalescesComputeGaps(t *testing.T) {
	const x = 1 << 12
	tr := trace.New(2)
	tr.Streams[0].AddCompute(2)
	tr.Streams[0].AddWrite(x)
	tr.Streams[1].AddRead(x)
	tr.Streams[1].AddRead(x)
	want := MeasureSharing(tr, 1)
	if want.CoherenceMissRate == 0 {
		t.Fatalf("MeasureSharing = %+v, want a coherence miss", want)
	}
	a := newSharingAccumulator(2, 1)
	a.Emit(0, trace.Event{Kind: trace.Compute})
	a.Emit(0, trace.Event{Kind: trace.Compute, N: 1})
	a.Emit(0, trace.Event{Kind: trace.Compute, N: 1})
	a.Emit(0, trace.Event{Kind: trace.Write, Addr: x})
	a.Emit(1, trace.Event{Kind: 9}) // unknown: a Trace stores nothing
	a.Emit(1, trace.Event{Kind: trace.Read, Addr: x})
	a.Emit(1, trace.Event{Kind: trace.Read, Addr: x})
	if got := a.stats()[0]; got != want {
		t.Errorf("streamed %+v, MeasureSharing %+v", got, want)
	}
}

// TestSharingAccumulatorStreamsKernels: each suite kernel streamed from its
// generator into one accumulator over every catalog grouping of its
// processor count (as the Suite streams them) measures exactly what
// MeasureSharing measures on the materialized trace, and the order buffer
// holds about a phase plus the drift between processors, not the
// execution.
func TestSharingAccumulatorStreamsKernels(t *testing.T) {
	var nprocs []int
	groupings := map[int][]int{}
	for _, cfg := range machine.Catalog() {
		np := cfg.TotalProcs()
		if cfg.N <= 1 || slices.Contains(groupings[np], cfg.Procs) {
			continue
		}
		if len(groupings[np]) == 0 {
			nprocs = append(nprocs, np)
		}
		groupings[np] = append(groupings[np], cfg.Procs)
	}
	for _, np := range nprocs {
		for _, w := range workloads.Suite(workloads.ScaleSmall) {
			tr, err := workloads.GenerateTrace(w, np)
			if err != nil {
				t.Fatal(err)
			}
			a := newSharingAccumulator(np, groupings[np]...)
			if err := w.Run(np, a); err != nil {
				t.Fatal(err)
			}
			for i, st := range a.stats() {
				if want := MeasureSharing(tr, groupings[np][i]); st != want {
					t.Errorf("%s on %d processors, %d per node: streamed %+v, MeasureSharing %+v",
						w.Name(), np, groupings[np][i], st, want)
				}
			}
			phase, drift := phaseBound(tr)
			t.Logf("%s on %d processors: order buffer peak %d references; largest phase %d, drift %d, trace %d",
				w.Name(), np, a.peak, phase, drift, tr.MemoryRefs())
			if a.peak > phase+drift {
				t.Errorf("%s on %d processors: order buffer peaked at %d references, above a phase (%d) plus the drift (%d)",
					w.Name(), np, a.peak, phase, drift)
			}
		}
	}
}

// TestSharingAccumulatorReturnsBlocks: stats gives every order-buffer
// block the accumulator took back to its pool, partly drained head blocks
// included, and a second identical stream measured on the same pool
// allocates no block and measures the same.
func TestSharingAccumulatorReturnsBlocks(t *testing.T) {
	w := workloads.NewLU(64, 8)
	var pool refPool
	measure := func() []SharingStats {
		a := newSharingAccumulator(8, 2, 4)
		a.pool = &pool
		if err := w.Run(8, a); err != nil {
			t.Fatal(err)
		}
		if a.peak == 0 {
			t.Fatal("the stream buffered nothing")
		}
		return a.stats()
	}
	free := func() int {
		n := 0
		for b := pool.free; b != nil; b = b.next {
			n++
		}
		return n
	}
	first := measure()
	if pool.blocks == 0 || free() != pool.blocks {
		t.Errorf("after stats %d of %d blocks are back in the pool", free(), pool.blocks)
	}
	allocated := pool.blocks
	if second := measure(); !slices.Equal(second, first) {
		t.Errorf("second pass measured %+v, first %+v", second, first)
	}
	if pool.blocks != allocated {
		t.Errorf("second pass allocated %d blocks", pool.blocks-allocated)
	}
	if free() != pool.blocks {
		t.Errorf("after the second pass %d of %d blocks are back in the pool", free(), pool.blocks)
	}
}

// phaseBound returns the references of the trace's largest barrier phase,
// summed over processors, and the drift: how far the processors' event
// counts spread, summed over processors.
func phaseBound(tr *trace.Trace) (phase, drift int) {
	var phases []int
	minLen := len(tr.Streams[0].Events)
	for _, s := range tr.Streams {
		minLen = min(minLen, len(s.Events))
		p := 0
		for _, e := range s.Events {
			if p == len(phases) {
				phases = append(phases, 0)
			}
			switch e.Kind {
			case trace.Read, trace.Write:
				phases[p]++
			case trace.Barrier:
				p++
			}
		}
	}
	for _, n := range phases {
		phase = max(phase, n)
	}
	for _, s := range tr.Streams {
		drift += len(s.Events) - minLen
	}
	return phase, drift
}

// BenchmarkSharingAccumulator is BenchmarkMeasureSharing's streamed
// counterpart in the Suite's shape: each suite kernel at each cluster
// processor count, recorded once in the generator's emission order (outside
// the timer) and replayed into a fresh accumulator over every catalog
// grouping of that count — the same five measurements per kernel. The jobs
// of one iteration share one block pool, as a simulate worker's passes do
// (passState), so the benchmark pays the Suite's steady-state allocation,
// not a cold pool per job.
func BenchmarkSharingAccumulator(b *testing.B) {
	type emitted struct {
		cpu int
		e   trace.Event
	}
	type job struct {
		events  []emitted
		nproc   int
		perNode []int
	}
	var nprocs []int
	groupings := map[int][]int{}
	for _, cfg := range machine.Catalog() {
		np := cfg.TotalProcs()
		if cfg.N <= 1 || slices.Contains(groupings[np], cfg.Procs) {
			continue
		}
		if len(groupings[np]) == 0 {
			nprocs = append(nprocs, np)
		}
		groupings[np] = append(groupings[np], cfg.Procs)
	}
	var jobs []job
	for _, np := range nprocs {
		for _, w := range workloads.Suite(workloads.ScaleSmall) {
			var events []emitted
			if err := w.Run(np, trace.FuncSink(func(cpu int, e trace.Event) {
				events = append(events, emitted{cpu, e})
			})); err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, job{events, np, groupings[np]})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pool refPool
		for _, j := range jobs {
			a := newSharingAccumulator(j.nproc, j.perNode...)
			a.pool = &pool
			for _, ev := range j.events {
				a.Emit(ev.cpu, ev.e)
			}
			a.stats()
		}
	}
}
