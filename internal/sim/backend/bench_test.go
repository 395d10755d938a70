package backend

import (
	"fmt"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

func benchTraceFor(b *testing.B, nproc int) *trace.Trace {
	b.Helper()
	w := workloads.NewRadix(1<<14, 64)
	tr, err := workloads.GenerateTrace(w, nproc)
	if err != nil {
		b.Fatal(err)
	}
	// Prime the per-stream op compilation outside the timer: the Simulate
	// benchmarks track the engine, and a validation sweep simulates one
	// compiled trace across many configurations. Cold decode cost is
	// tracked separately (BenchmarkStreamRun).
	for _, s := range tr.Streams {
		s.Ops()
	}
	return tr
}

func BenchmarkSimulateSMPBus(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := smpConfig(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.MemoryRefs()), "refs")
}

func BenchmarkSimulateClusterWSBus(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := wsConfig(4, machine.NetBus100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateClusterWSSwitch(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := wsConfig(4, machine.NetSwitch155)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateClusterSMP(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := csmpConfig(2, 2, machine.NetSwitch155)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSMPBusDeep3 is BenchmarkSimulateSMPBus on a 3-level
// hierarchy: same trace, same coherence, plus the exclusive victim stack in
// front of memory. The pair bounds what the deep path costs the engine.
func BenchmarkSimulateSMPBusDeep3(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := withLevels(smpConfig(4), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.MemoryRefs()), "refs")
}

// BenchmarkSimulateClusterSMPDeep2 tracks the deep path under the DSM
// protocol, where the L2 probe sits between the snoop and the directory.
func BenchmarkSimulateClusterSMPDeep2(b *testing.B) {
	tr := benchTraceFor(b, 4)
	cfg := withLevels(csmpConfig(2, 2, machine.NetSwitch155), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamRun(b *testing.B) {
	w := workloads.NewRadix(1<<14, 64)
	cfg := wsConfig(4, machine.NetBus100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := StreamRun(sys, 4, func(sink trace.Sink) error {
			return w.Run(4, sink)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamRunAll is BenchmarkStreamRun with four systems sharing one
// generator pass — the validation matrix's shape, where every phase is
// generated and compiled once for all platforms (integer and float clocks).
func BenchmarkStreamRunAll(b *testing.B) {
	w := workloads.NewRadix(1<<14, 64)
	cfgs := []machine.Config{
		wsConfig(4, machine.NetBus100),
		smpConfig(4),
		csmpConfig(2, 2, machine.NetSwitch155),
		fractionalConfigs(4)[0],
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		systems := make([]*System, len(cfgs))
		for j, cfg := range cfgs {
			var err error
			if systems[j], err = NewSystem(cfg); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := StreamRunAll(systems, 4, func(sink trace.Sink) error {
			return w.Run(4, sink)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessCacheHit(b *testing.B) {
	sys, err := NewSystem(smpConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	sys.Access(0, 64, false, 0)
	b.ResetTimer()
	now := 1.0
	for i := 0; i < b.N; i++ {
		now = sys.Access(0, 64, false, now)
	}
}

// newSystemSink keeps BenchmarkNewSystem's result live.
var newSystemSink *System

// BenchmarkNewSystem measures building a system before its first reference:
// caches, directories and each node's page pool. Run it with -benchmem;
// B/op is the number that tracks what construction allocates.
func BenchmarkNewSystem(b *testing.B) {
	for _, name := range []string{"C8", "C14", "modern-2s-server"} {
		for _, div := range []int{1, 16} {
			cfg, err := machine.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if cfg, err = cfg.Scaled(div); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/div%d", name, div), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys, err := NewSystem(cfg)
					if err != nil {
						b.Fatal(err)
					}
					newSystemSink = sys
				}
			})
		}
	}
}
