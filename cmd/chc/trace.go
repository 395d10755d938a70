package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"memhier/internal/experiments"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// runTrace is the trace-collection tool the paper's §7 lists as future
// work: it generates per-processor memory reference traces from the
// instrumented kernels, saves/loads them in the compact binary format of
// internal/trace, and inspects their contents (per-CPU statistics, sharing
// analysis, stack-distance summaries).
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("trace", stderr)
	var (
		workload   = fs.String("workload", "", "generate: workload name (fft, lu, radix, edge, tpcc)")
		nproc      = fs.Int("nproc", 1, "generate: logical processors")
		paperScale = fs.Bool("paper-scale", false, "generate: paper problem sizes")
		out        = fs.String("out", "", "write the trace to this file")
		gz         = fs.Bool("gzip", false, "gzip-compress the written trace (read side auto-detects)")
		in         = fs.String("in", "", "read a trace from this file instead of generating")
		stats      = fs.Bool("stats", true, "print per-CPU statistics")
		sharing    = fs.Bool("sharing", false, "print cross-machine sharing analysis")
		perNode    = fs.Int("per-node", 1, "sharing: processors per machine")
		distances  = fs.Bool("distances", false, "print a stack-distance summary (all CPU streams, analyzed concurrently and merged)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	var tr *trace.Trace
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr = new(trace.Trace)
		if _, err := tr.ReadFrom(f); err != nil {
			return fmt.Errorf("reading %s: %w", *in, err)
		}
	case *workload != "":
		k, err := workloads.ByName(strings.ToLower(*workload), scale(*paperScale))
		if err != nil {
			return err
		}
		if tr, err = workloads.GenerateTrace(k, *nproc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "generated %s: %s\n", k.Name(), k.Description())
	default:
		fs.Usage()
		return exitStatus(2)
	}

	if *sharing {
		if err := checkSharingGroups(tr.NumCPU(), *perNode); err != nil {
			return err
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		var n int64
		if *gz {
			n, err = tr.WriteGzip(f)
		} else {
			n, err = tr.WriteTo(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d bytes to %s\n", n, *out)
	}

	if *stats {
		fmt.Fprintf(stdout, "processors: %d, instructions: %d, references: %d, gamma: %.4f\n",
			tr.NumCPU(), tr.Instructions(), tr.MemoryRefs(), tr.Gamma())
		for _, s := range tr.Streams {
			fmt.Fprintf(stdout, "  cpu %2d: %9d refs (%d R / %d W), %10d compute, %d barriers, gamma %.4f\n",
				s.CPU, s.MemoryRefs(), s.Reads(), s.Writes(), s.ComputeInstrs(), s.Barriers(), s.Gamma())
		}
	}

	if *sharing {
		st := experiments.MeasureSharing(tr, *perNode)
		fmt.Fprintf(stdout, "sharing (%d processors per machine):\n", *perNode)
		fmt.Fprintf(stdout, "  remote-home share:   %.4f of references\n", st.RemoteShare)
		fmt.Fprintf(stdout, "  coherence miss rate: %.4f of references\n", st.CoherenceMissRate)
	}

	if *distances {
		d, err := workloads.AnalyzeStreams(tr, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stack distances (%d CPUs merged, item granularity): %d refs, %d cold misses\n",
			tr.NumCPU(), d.Total+d.Cold, d.Cold)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if x, err := d.Quantile(q); err == nil {
				fmt.Fprintf(stdout, "  P%.0f distance: %d\n", q*100, x)
			}
		}
		for _, c := range []int{64, 1024, 16384} {
			fmt.Fprintf(stdout, "  LRU hit ratio at %5d items: %.4f\n", c, d.HitRatio(c))
		}
	}
	return nil
}

// checkSharingGroups rejects a -per-node value the sharing analysis cannot
// measure: fewer than one processor per machine, or more machines than
// experiments.MeasureSharing tells apart.
func checkSharingGroups(cpus, perNode int) error {
	if perNode < 1 {
		return fmt.Errorf("-per-node %d: a machine needs at least 1 processor", perNode)
	}
	if machines := (cpus + perNode - 1) / perNode; machines > experiments.MaxSharingMachines {
		return fmt.Errorf("-per-node %d groups %d processors into %d machines; sharing analysis tells at most %d apart",
			perNode, cpus, machines, experiments.MaxSharingMachines)
	}
	return nil
}
