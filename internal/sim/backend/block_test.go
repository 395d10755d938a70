package backend

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
)

// boundarySizes are per-processor phase lengths, in work ops before the
// barrier op, around the phase buffer's block boundaries: an empty phase,
// one op, a barrier on a block's last slot (opBlockLen-1 work ops), a
// barrier opening the next block, one op past it, and three full blocks.
var boundarySizes = []int{0, 1, opBlockLen - 1, opBlockLen, opBlockLen + 1, 3 * opBlockLen}

// boundaryTrace builds an nproc-processor bulk-synchronous trace with one
// phase per entry of sizes: in phase p, processor c runs
// sizes[(p+c)%len(sizes)] work ops, each a read or write that may carry a
// compute gap, then arrives at the barrier. After the last barrier
// processor c runs tails[c%len(tails)] more work ops, processor 1 ends in a
// trailing compute gap, and with stuck processor nproc-1 finally arrives at
// a barrier nobody else reaches.
func boundaryTrace(seed int64, nproc int, sizes, tails []int, stuck bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(nproc)
	work := func(s *trace.Stream, n int) {
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.AddCompute(uint64(1 + rng.Intn(20)))
			}
			addr := uint64(rng.Intn(1 << 14))
			if rng.Intn(4) == 0 {
				s.AddWrite(addr)
			} else {
				s.AddRead(addr)
			}
		}
	}
	for p := range sizes {
		for c, s := range tr.Streams {
			work(s, sizes[(p+c)%len(sizes)])
			if rng.Intn(2) == 0 {
				s.AddCompute(uint64(1 + rng.Intn(20))) // carried by the barrier op
			}
			s.AddBarrier()
		}
	}
	for c, s := range tr.Streams {
		work(s, tails[c%len(tails)])
		if c == 1 {
			s.AddCompute(7)
		}
	}
	if stuck {
		tr.Streams[nproc-1].AddBarrier()
	}
	return tr
}

// boundaryConfigs are the platforms a block-boundary trace runs on, integer
// and float clocks mixed.
func boundaryConfigs(nproc int) []machine.Config {
	cfgs := []machine.Config{smpConfig(nproc), withLevels(smpConfig(nproc), 3)}
	if nproc%2 == 0 {
		cfgs = append(cfgs, wsConfig(nproc, machine.NetBus100), csmpConfig(nproc/2, 2, machine.NetSwitch155))
	}
	return append(cfgs, fractionalConfigs(nproc)...)
}

// checkStreamMatchesRun streams tr through one StreamRunAll call over every
// boundary platform, compiling into buf, and requires each result to equal
// Run of tr on a fresh system — or, when tr is malformed, both to fail.
func checkStreamMatchesRun(t *testing.T, tr *trace.Trace, buf *PhaseBuffer) {
	t.Helper()
	nproc := tr.NumCPU()
	cfgs := boundaryConfigs(nproc)
	wants := make([]RunResult, len(cfgs))
	var runErr error
	systems := make([]*System, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wants[i], err = Run(tr, sys); err != nil {
			runErr = err
		}
		if systems[i], err = NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
	}
	got, err := StreamRunAll(systems, nproc, replay(tr), WithPhaseBuffer(buf))
	if runErr != nil || err != nil {
		if runErr == nil || err == nil {
			t.Fatalf("Run error %v, StreamRunAll error %v: one accepted what the other rejected", runErr, err)
		}
		return
	}
	for i, cfg := range cfgs {
		if !reflect.DeepEqual(got[i], wants[i]) {
			t.Errorf("%s on %d processors: StreamRunAll diverged from Run:\nrun:    %+v\nstream: %+v",
				cfg.Name, nproc, wants[i], got[i])
		}
	}
}

// phaseBlocks returns the blocks the largest phase of tr needs: over the
// barrier-delimited phases (and the tail), the most Σ ⌈ops/opBlockLen⌉
// over processors, where ops is the processor's compiled phase length.
func phaseBlocks(tr *trace.Trace) int {
	var need []int // per phase
	for _, s := range tr.Streams {
		var c trace.OpCompiler
		phase := 0
		count := func() {
			for len(need) <= phase {
				need = append(need, 0)
			}
			need[phase] += (len(c.Ops) + opBlockLen - 1) / opBlockLen
			c.Ops = c.Ops[:0]
		}
		for _, e := range s.Events {
			if err := c.Add(e); err != nil {
				panic(err)
			}
			if e.Kind == trace.Barrier {
				count()
				phase++
			}
		}
		c.Flush()
		count()
	}
	most := 0
	for _, n := range need {
		most = max(most, n)
	}
	return most
}

// TestStreamRunAllBlockBoundaries: phases that end on, just before and just
// after a block boundary, span several blocks or hold only the barrier, a
// tail that crosses a boundary, and a barrier that never completes — the
// streamed run over integer and float clocks must equal Run on fresh
// systems, one buffer carrying its blocks from one call to the next.
func TestStreamRunAllBlockBoundaries(t *testing.T) {
	tails := []int{0, opBlockLen + 3, opBlockLen - 1, 2 * opBlockLen}
	var buf PhaseBuffer
	for _, nproc := range []int{1, 3, 4} {
		for _, stuck := range []bool{false, true} {
			checkStreamMatchesRun(t, boundaryTrace(int64(nproc), nproc, boundarySizes, tails, stuck), &buf)
			if len(buf.free) != buf.blocks {
				t.Errorf("nproc=%d stuck=%v: %d of %d blocks back on the free list", nproc, stuck, len(buf.free), buf.blocks)
			}
		}
	}
}

// TestPhaseBufferStorageBound: a pass leaves the buffer holding no more
// blocks than its largest phase needs plus one per processor, every one of
// them free, and a second identical pass on the same buffer allocates none.
func TestPhaseBufferStorageBound(t *testing.T) {
	const nproc = 4
	tr := boundaryTrace(9, nproc, boundarySizes, []int{opBlockLen + 3, 0}, false)
	run := func(buf *PhaseBuffer) {
		systems := []*System{}
		for _, cfg := range boundaryConfigs(nproc) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
		}
		if _, err := StreamRunAll(systems, nproc, replay(tr), WithPhaseBuffer(buf)); err != nil {
			t.Fatal(err)
		}
	}
	var buf PhaseBuffer
	run(&buf)
	bound := phaseBlocks(tr) + nproc
	if buf.blocks > bound {
		t.Errorf("pass allocated %d blocks, the largest phase needs %d plus %d", buf.blocks, bound-nproc, nproc)
	}
	if len(buf.free) != buf.blocks {
		t.Errorf("%d of %d blocks back on the free list", len(buf.free), buf.blocks)
	}
	first := buf.blocks
	run(&buf)
	if buf.blocks != first {
		t.Errorf("second pass allocated %d blocks", buf.blocks-first)
	}
}

// FuzzStreamBlockBoundaries explores phase lengths around block
// boundaries: three per-processor phase lengths (up to three blocks and
// one op), a tail length and an unfinished barrier. The seeds are the
// cases of TestStreamRunAllBlockBoundaries.
func FuzzStreamBlockBoundaries(f *testing.F) {
	const L = opBlockLen
	f.Add(int64(1), uint8(3), uint16(0), uint16(1), uint16(L-1), uint16(L+3), false)
	f.Add(int64(2), uint8(2), uint16(L), uint16(L+1), uint16(3*L), uint16(0), false)
	f.Add(int64(3), uint8(3), uint16(L-1), uint16(3*L), uint16(1), uint16(L-1), true)
	f.Add(int64(4), uint8(0), uint16(L+1), uint16(0), uint16(L), uint16(2*L), true)
	f.Fuzz(func(t *testing.T, seed int64, nprocRaw uint8, a, b, c, tail uint16, stuck bool) {
		nproc := 1 + int(nprocRaw)%4
		sizes := []int{int(a) % (3*L + 2), int(b) % (3*L + 2), int(c) % (3*L + 2)}
		tails := []int{int(tail) % (3*L + 2), 0}
		var buf PhaseBuffer
		checkStreamMatchesRun(t, boundaryTrace(seed, nproc, sizes, tails, stuck), &buf)
	})
}

// TestEngineKeyCrossesBlocks: at every position of a chain, the end of a
// block included, the scan key peeks the same next op as at the same
// position of the chain's ops in one block. The key only bounds when a
// processor next touches shared machinery, so results cannot show a wrong
// peek; batching would.
func TestEngineKeyCrossesBlocks(t *testing.T) {
	sys, err := NewSystem(smpConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	flat := []trace.Op{{N: 3, Arg: trace.OpRead}, {N: 5, Arg: trace.OpWrite}, {N: 7, Arg: trace.OpRead},
		{N: 11, Arg: trace.OpNone}, {N: 13, Arg: trace.OpRead}, {N: 17, Arg: trace.OpBarrier}}
	chain := [][]trace.Op{flat[:3], flat[3:4], flat[4:]}
	e := newEngine[uint64](sys, 1, 0, math.MaxUint64)
	e.chains[0] = chain
	off := 0
	for b, blk := range chain {
		for n := 0; n <= len(blk); n++ {
			e.blks[0], e.ops[0], e.nexts[0] = b, blk, n
			var want uint64
			if off+n < len(flat) {
				want = flat[off+n].N * e.latInstr
			}
			if got := e.key(0, 0); got != want {
				t.Errorf("block %d, op %d: key %d, want %d", b, n, got, want)
			}
		}
		off += len(blk)
	}
}
