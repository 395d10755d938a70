// Command chc-sim runs one of the five execution-driven memory-hierarchy
// simulators on an instrumented workload, printing the simulated E(Instr)
// and the access-class breakdown.
//
// Usage:
//
//	chc-sim -config C8 -workload fft
//	chc-sim -config C8 -workload radix -divisor 16   # capacity-scaled validation run
//	chc-sim -config C1 -workload edge -paper-scale
package main

import (
	"flag"
	"fmt"
	"os"

	"memhier/internal/machine"
	"memhier/internal/profiling"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "chc-sim:", err)
	os.Exit(1)
}

func main() {
	var (
		config     = flag.String("config", "C1", "catalog configuration C1-C15 or a modern preset (modern-2s-server, cloud-vm-8)")
		workload   = flag.String("workload", "fft", "workload: fft, lu, radix, edge, tpcc")
		divisor    = flag.Int("divisor", 1, "divide cache/memory capacities by this factor")
		paperScale = flag.Bool("paper-scale", false, "use the paper's full problem sizes (slow, memory-hungry)")
		phases     = flag.Bool("phases", false, "print the per-phase profile (barrier-delimited)")
		stream     = flag.Bool("stream", false, "stream the generator into the simulator (constant memory; use for -paper-scale)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit (inspect with `go tool pprof`)")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	cfg, err := machine.ByName(*config)
	if err != nil {
		fail(err)
	}
	cfg, err = cfg.Scaled(*divisor)
	if err != nil {
		fail(err)
	}

	scale := workloads.ScaleSmall
	if *paperScale {
		scale = workloads.ScalePaper
	}
	k, err := workloads.ByName(*workload, scale)
	if err != nil {
		fail(err)
	}

	var res backend.RunResult
	if *stream {
		fmt.Printf("stream-simulating %s on %d processors...\n", k.Name(), cfg.TotalProcs())
		sys, err := backend.NewSystem(cfg)
		if err != nil {
			fail(err)
		}
		var opts []backend.StreamOption
		if h, ok := k.(workloads.EventHinter); ok {
			opts = append(opts, backend.WithEventHint(h.EventHint(cfg.TotalProcs())))
		}
		res, err = backend.StreamRun(sys, cfg.TotalProcs(), func(sink trace.Sink) error {
			return k.Run(cfg.TotalProcs(), sink)
		}, opts...)
		if err != nil {
			fail(err)
		}
	} else {
		fmt.Printf("generating %s trace for %d processors...\n", k.Name(), cfg.TotalProcs())
		tr, err := workloads.GenerateTrace(k, cfg.TotalProcs())
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d instructions, %d memory references, %d barriers/cpu\n",
			tr.Instructions(), tr.MemoryRefs(), tr.Streams[0].Barriers())
		res, err = backend.Simulate(tr, cfg)
		if err != nil {
			fail(err)
		}
	}

	fmt.Printf("platform:  %s (%s, n=%d, N=%d, cache %s, mem %dMB, net %v)\n",
		cfg.Name, cfg.Kind, cfg.Procs, cfg.N, cfg.CacheDesc(), cfg.MemoryBytes>>20, cfg.Net)
	fmt.Printf("wall      = %.0f cycles\n", res.WallCycles)
	fmt.Printf("E(Instr)  = %.4f cycles = %.4g seconds at %g MHz\n", res.EInstr, res.Seconds, cfg.ClockMHz)
	fmt.Printf("avg T     = %.2f cycles/reference\n", res.AvgT)
	fmt.Printf("barriers  = %d (%.0f cycles waiting, %.3f cycles/instr)\n",
		res.Barriers, res.BarrierWaitCycles, res.BarrierWaitCycles/float64(res.Instructions))
	fmt.Println("served by:")
	for c := backend.ClassCacheHit; c <= backend.ClassDisk; c++ {
		// Deep-level classes only exist on multi-level hierarchies; hiding
		// them at zero keeps one-level output identical to earlier releases.
		if c.DeepOnly() && res.ClassShare[c] == 0 {
			continue
		}
		fmt.Printf("  %-14s %8.4f%%\n", c, res.ClassShare[c]*100)
	}
	fmt.Printf("coherence bus share = %.2f%%  (paper reports 2.1-7.2%% on SMPs)\n", res.CoherenceShare*100)
	if cfg.N > 1 {
		fmt.Printf("network utilization = %.2f%%\n", res.NetUtilization*100)
	}

	if *phases {
		fmt.Println("phase profile:")
		for _, p := range res.Phases {
			remote := p.Stats.ClassCounts[backend.ClassRemoteClean] + p.Stats.ClassCounts[backend.ClassRemoteDirty]
			fmt.Printf("  phase %3d: %12.0f cycles  %9d refs  %8d remote  barrier wait %10.0f\n",
				p.Index, p.Cycles(), p.Stats.Refs, remote, p.BarrierWait)
		}
	}
}
