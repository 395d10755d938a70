package backend

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// TestStreamRunMatchesRun: the streaming engine must reproduce the
// materialized engine's results exactly, for every backend variant, a
// 3-level hierarchy and a fractional-latency (float clock) platform — run
// one system per generator pass, and with every platform of a processor
// count sharing one pass (StreamRunAll), integer and float clocks mixed.
func TestStreamRunMatchesRun(t *testing.T) {
	cfgs := []machine.Config{
		smpConfig(2),
		wsConfig(2, machine.NetBus100),
		csmpConfig(2, 2, machine.NetSwitch155),
		withLevels(csmpConfig(2, 2, machine.NetBus100), 3),
		fractionalConfigs(2)[0],
		fractionalConfigs(4)[1],
	}
	kernels := []workloads.Workload{
		workloads.NewFFT(256),
		workloads.NewLU(24, 4),
		workloads.NewRadix(2000, 16),
		workloads.NewEdge(24, 24, 2),
	}
	for _, w := range kernels {
		mats := make([]RunResult, len(cfgs))
		for i, cfg := range cfgs {
			tr, err := workloads.GenerateTrace(w, cfg.TotalProcs())
			if err != nil {
				t.Fatal(err)
			}
			matSys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mats[i], err = Run(tr, matSys); err != nil {
				t.Fatal(err)
			}
			strSys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			str, err := StreamRun(strSys, cfg.TotalProcs(), func(sink trace.Sink) error {
				return w.Run(cfg.TotalProcs(), sink)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mats[i], str) {
				t.Errorf("%s/%s: stream diverged from run:\nrun:    %+v\nstream: %+v", cfg.Name, w.Name(), mats[i], str)
			}
		}
		for _, nproc := range []int{2, 4} {
			var systems []*System
			var idx []int
			for i, cfg := range cfgs {
				if cfg.TotalProcs() != nproc {
					continue
				}
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				systems = append(systems, sys)
				idx = append(idx, i)
			}
			res, err := StreamRunAll(systems, nproc, func(sink trace.Sink) error {
				return w.Run(nproc, sink)
			})
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range idx {
				if !reflect.DeepEqual(mats[i], res[j]) {
					t.Errorf("%s/%s: shared stream (%d systems) diverged from run:\nrun:    %+v\nstream: %+v",
						cfgs[i].Name, w.Name(), len(systems), mats[i], res[j])
				}
			}
		}
	}
}

// replay emits a materialized bulk-synchronous trace phase by phase, each
// processor's whole phase before the next one's, as the kernels' runner
// does.
func replay(tr *trace.Trace) func(trace.Sink) error {
	return func(sink trace.Sink) error {
		next := make([]int, tr.NumCPU())
		for {
			emitted := false
			for cpu, s := range tr.Streams {
				for next[cpu] < len(s.Events) {
					e := s.Events[next[cpu]]
					next[cpu]++
					emitted = true
					sink.Emit(cpu, e)
					if e.Kind == trace.Barrier {
						break
					}
				}
			}
			if !emitted {
				return nil
			}
		}
	}
}

// TestStreamRunAllErrors: there must be a system, every system must match
// the generator's processor count, and a malformed stream fails the whole
// call.
func TestStreamRunAllErrors(t *testing.T) {
	a, _ := NewSystem(smpConfig(2))
	b, _ := NewSystem(smpConfig(4))
	if _, err := StreamRunAll([]*System{a, b}, 2, func(trace.Sink) error { return nil }); err == nil {
		t.Error("processor mismatch in the second system accepted")
	}
	a, _ = NewSystem(smpConfig(2))
	b, _ = NewSystem(wsConfig(2, machine.NetBus100))
	_, err := StreamRunAll([]*System{a, b}, 2, func(sink trace.Sink) error {
		sink.Emit(0, trace.Event{Kind: trace.Barrier})
		return nil
	})
	if err == nil {
		t.Error("unfinished barrier accepted")
	}
	if _, err := StreamRunAll(nil, 2, func(trace.Sink) error { return nil }); err == nil {
		t.Error("no systems accepted")
	}
}

func TestStreamRunErrors(t *testing.T) {
	sys, err := NewSystem(smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched processor count.
	if _, err := StreamRun(sys, 3, func(trace.Sink) error { return nil }); err == nil {
		t.Error("processor mismatch accepted")
	}
	// Generator failure propagates.
	sys2, _ := NewSystem(smpConfig(2))
	boom := errors.New("boom")
	if _, err := StreamRun(sys2, 2, func(trace.Sink) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("generator error lost: %v", err)
	}

	// Malformed streams fail the run instead of crashing: each bad event is
	// followed by well-formed phases, which the collector drops, and
	// generate must still run to completion before StreamRun returns.
	barrier := trace.Event{Kind: trace.Barrier}
	read := trace.Event{Kind: trace.Read, Addr: 64}
	for _, tc := range []struct {
		name string
		bad  func(sink trace.Sink)
	}{
		{"event after own barrier arrival", func(sink trace.Sink) {
			sink.Emit(0, barrier)
			sink.Emit(0, read)
		}},
		{"second barrier arrival", func(sink trace.Sink) {
			sink.Emit(0, barrier)
			sink.Emit(0, barrier)
		}},
		{"processor out of range", func(sink trace.Sink) { sink.Emit(2, read) }},
		{"negative processor", func(sink trace.Sink) { sink.Emit(-1, read) }},
		{"unknown event kind", func(sink trace.Sink) { sink.Emit(1, trace.Event{Kind: 9}) }},
		{"address beyond trace.MaxAddr", func(sink trace.Sink) {
			sink.Emit(0, trace.Event{Kind: trace.Write, Addr: trace.MaxAddr + 1})
		}},
	} {
		sys, err := NewSystem(smpConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		returned := false
		_, err = StreamRun(sys, 2, func(sink trace.Sink) error {
			defer func() { returned = true }()
			tc.bad(sink)
			for i := 0; i < 8; i++ {
				for cpu := 0; cpu < 2; cpu++ {
					sink.Emit(cpu, read)
					sink.Emit(cpu, barrier)
				}
			}
			return nil
		})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if !returned {
			t.Errorf("%s: StreamRun returned before generate did", tc.name)
		}
	}
}

// TestStreamRunGeneratorPanic: generate runs on the caller's goroutine, so
// a panic after a complete phase reaches StreamRun's caller, where a
// deferred recover sees it, instead of killing the process.
func TestStreamRunGeneratorPanic(t *testing.T) {
	sys, err := NewSystem(smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	const boom = "generator crash"
	defer func() {
		if rec := recover(); rec != boom {
			t.Errorf("recovered %v, want %q", rec, boom)
		}
	}()
	StreamRun(sys, 2, func(sink trace.Sink) error {
		for cpu := 0; cpu < 2; cpu++ {
			sink.Emit(cpu, trace.Event{Kind: trace.Read, Addr: 64})
			sink.Emit(cpu, trace.Event{Kind: trace.Barrier})
		}
		panic(boom)
	})
	t.Error("StreamRun returned after its generator panicked")
}

// TestStreamRunUnfinishedBarrier: a barrier some processors never reach is
// reported, as Run reports an unbalanced trace.
func TestStreamRunUnfinishedBarrier(t *testing.T) {
	sys, err := NewSystem(smpConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = StreamRun(sys, 2, func(sink trace.Sink) error {
		sink.Emit(0, trace.Event{Kind: trace.Read, Addr: 64})
		sink.Emit(0, trace.Event{Kind: trace.Barrier})
		sink.Emit(1, trace.Event{Kind: trace.Compute, N: 3})
		return nil
	})
	if err == nil {
		t.Error("unfinished barrier accepted")
	}
}

func TestStreamRunEmptyGenerator(t *testing.T) {
	sys, _ := NewSystem(smpConfig(2))
	res, err := StreamRun(sys, 2, func(trace.Sink) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles != 0 || res.Instructions != 0 {
		t.Errorf("empty stream: %+v", res)
	}
}

// TestStreamRunPaperScale is the opt-in proof that paper-size problems
// simulate without materializing their traces.
func TestStreamRunPaperScale(t *testing.T) {
	if os.Getenv("MEMHIER_PAPER_SCALE") == "" {
		t.Skip("set MEMHIER_PAPER_SCALE=1 to stream-simulate a paper-size problem")
	}
	cfg, err := machine.ByName("C8")
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.NewFFT(1 << 16) // the paper's 64K points
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamRun(sys, cfg.TotalProcs(), func(sink trace.Sink) error {
		return w.Run(cfg.TotalProcs(), sink)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("paper-scale FFT on C8: E(Instr)=%.3f cycles over %d instructions", res.EInstr, res.Instructions)
	if res.MemoryRefs < 1<<20 {
		t.Errorf("expected millions of references, got %d", res.MemoryRefs)
	}
}
