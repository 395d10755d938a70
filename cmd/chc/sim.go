package main

import (
	"fmt"
	"io"

	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// runSim runs one of the five execution-driven memory-hierarchy
// simulators on an instrumented workload, printing the simulated E(Instr)
// and the access-class breakdown.
func runSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sim", stderr)
	var (
		config     = fs.String("config", "C1", "catalog configuration C1-C15 or a modern preset (modern-2s-server, cloud-vm-8)")
		workload   = fs.String("workload", "fft", "workload: fft, lu, radix, edge, tpcc")
		divisor    = fs.Int("divisor", 1, "divide cache/memory capacities by this factor")
		paperScale = fs.Bool("paper-scale", false, "use the paper's full problem sizes (slow, memory-hungry)")
		phases     = fs.Bool("phases", false, "print the per-phase profile (barrier-delimited)")
		stream     = fs.Bool("stream", false, "stream the generator into the simulator (constant memory; use for -paper-scale)")
	)
	cpuProf, memProf := profileFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	return profiled(*cpuProf, *memProf, func() error {
		cfg, err := machine.ByName(*config)
		if err != nil {
			return err
		}
		if cfg, err = cfg.Scaled(*divisor); err != nil {
			return err
		}
		k, err := workloads.ByName(*workload, scale(*paperScale))
		if err != nil {
			return err
		}
		res, err := simulate(stdout, k, cfg, *stream)
		if err != nil {
			return err
		}
		printSim(stdout, cfg, res, *phases)
		return nil
	})
}

// simulate runs kernel k on cfg, streaming the generator into the
// simulator or materializing the whole trace first.
func simulate(stdout io.Writer, k workloads.Workload, cfg machine.Config, stream bool) (backend.RunResult, error) {
	procs := cfg.TotalProcs()
	if stream {
		fmt.Fprintf(stdout, "stream-simulating %s on %d processors...\n", k.Name(), procs)
		sys, err := backend.NewSystem(cfg)
		if err != nil {
			return backend.RunResult{}, err
		}
		var opts []backend.StreamOption
		if h, ok := k.(workloads.EventHinter); ok {
			opts = append(opts, backend.WithEventHint(h.EventHint(procs)))
		}
		return backend.StreamRun(sys, procs, func(sink trace.Sink) error {
			return k.Run(procs, sink)
		}, opts...)
	}
	fmt.Fprintf(stdout, "generating %s trace for %d processors...\n", k.Name(), procs)
	tr, err := workloads.GenerateTrace(k, procs)
	if err != nil {
		return backend.RunResult{}, err
	}
	fmt.Fprintf(stdout, "  %d instructions, %d memory references, %d barriers/cpu\n",
		tr.Instructions(), tr.MemoryRefs(), tr.Streams[0].Barriers())
	return backend.Simulate(tr, cfg)
}

func printSim(w io.Writer, cfg machine.Config, res backend.RunResult, phases bool) {
	fmt.Fprintf(w, "platform:  %s (%s, n=%d, N=%d, cache %s, mem %dMB, net %v)\n",
		cfg.Name, cfg.Kind, cfg.Procs, cfg.N, cfg.CacheDesc(), cfg.MemoryBytes>>20, cfg.Net)
	fmt.Fprintf(w, "wall      = %.0f cycles\n", res.WallCycles)
	fmt.Fprintf(w, "E(Instr)  = %.4f cycles = %.4g seconds at %g MHz\n", res.EInstr, res.Seconds, cfg.ClockMHz)
	fmt.Fprintf(w, "avg T     = %.2f cycles/reference\n", res.AvgT)
	fmt.Fprintf(w, "barriers  = %d (%.0f cycles waiting, %.3f cycles/instr)\n",
		res.Barriers, res.BarrierWaitCycles, res.BarrierWaitCycles/float64(res.Instructions))
	fmt.Fprintln(w, "served by:")
	for c := backend.ClassCacheHit; c <= backend.ClassDisk; c++ {
		// Deep-level classes only exist on multi-level hierarchies; hiding
		// them at zero keeps one-level output identical to earlier releases.
		if c.DeepOnly() && res.ClassShare[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %8.4f%%\n", c, res.ClassShare[c]*100)
	}
	fmt.Fprintf(w, "coherence bus share = %.2f%%  (paper reports 2.1-7.2%% on SMPs)\n", res.CoherenceShare*100)
	if cfg.N > 1 {
		fmt.Fprintf(w, "network utilization = %.2f%%\n", res.NetUtilization*100)
	}
	if phases {
		fmt.Fprintln(w, "phase profile:")
		for _, p := range res.Phases {
			remote := p.Stats.ClassCounts[backend.ClassRemoteClean] + p.Stats.ClassCounts[backend.ClassRemoteDirty]
			fmt.Fprintf(w, "  phase %3d: %12.0f cycles  %9d refs  %8d remote  barrier wait %10.0f\n",
				p.Index, p.Cycles(), p.Stats.Refs, remote, p.BarrierWait)
		}
	}
}
