// Command chc is the memory-hierarchy design tool the paper's §7
// envisions: trace collection, trace analysis, the analytical model, the
// execution-driven simulator and budget-constrained configuration
// generation behind one front door, one subcommand per step.
//
// Usage:
//
//	chc model -config C8 -workload FFT            # paper Table 2 parameters
//	chc model -config C8 -workload fft -measured  # characterize the Go kernel
//	chc model -kind ws -N 4 -n 1 -cache 256KB -mem 64MB -net 100 -workload Radix
//	chc sim -config C8 -workload fft
//	chc sim -config C8 -workload radix -divisor 16   # capacity-scaled validation run
//	chc sim -config C1 -workload edge -paper-scale
//	chc fit -workload fft
//	chc fit -workload radix -line 64       # cache-line granularity
//	chc fit -workload lu -paper-scale
//	chc fit -workload edge -save trace.bin # also dump the raw trace
//	chc opt -budget 5000 -workload FFT
//	chc opt -budget 20000 -workload Radix -top 10
//	chc opt -upgrade -config C7 -budget 2000 -workload EDGE
//	chc advisor -budget 5000 -workload Radix          # paper parameters
//	chc advisor -budget 8000 -workload radix -measured
//	chc advisor -budget 20000 -workload TPC-C -top 8
//	chc compare -a C8 -b C10
//	chc compare -a C5 -b C11 -workload Radix
//	chc trace -workload fft -nproc 4 -out fft4.trace
//	chc trace -in fft4.trace -stats
//	chc trace -in fft4.trace -sharing -per-node 2
//	chc trace -workload radix -nproc 1 -distances
//	chc repro -all [-parallel 8] [-progress]
//	chc repro -table 2
//	chc repro -figure 3 [-divisor 16]
//	chc repro -case 1 | -case fft4x | -case principles
//	chc repro -calibrate
//	chc sweep -addr http://127.0.0.1:8080
//	chc sweep -addr ... -configs C1-C15 -workloads fft,lu,radix -budgets 2000:20000:2000
//	chc sweep -addr ... -budgets 5000,8000,20000 -ndjson
//
// "chc <subcommand> -h" lists a subcommand's flags. A failing subcommand
// prints one "chc <subcommand>: ..." line on stderr and exits 1; a bad
// flag or a missing mode exits 2, as does a sweep with failed points.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"memhier/internal/core"
	"memhier/internal/experiments"
	"memhier/internal/profiling"
	"memhier/internal/workloads"
)

// subcommands is the front door's dispatch table, in help order.
var subcommands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}{
	{"model", "evaluate the analytical model for one platform and workload", runModel},
	{"sim", "simulate one platform and workload, execution-driven", runSim},
	{"fit", "characterize a workload's locality (alpha, beta, gamma)", runFit},
	{"opt", "find the best platform, or upgrade, for a budget", runOpt},
	{"advisor", "chain characterization, optimization and sensitivities", runAdvisor},
	{"compare", "put two platforms head to head across the workloads", runCompare},
	{"trace", "generate, save, load and inspect reference traces", runTrace},
	{"repro", "regenerate the paper's tables, figures and case studies", runRepro},
	{"sweep", "drive chc-serve's /v1/sweep over a parameter grid", runSweep},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, sc := range subcommands {
		if sc.name != args[0] {
			continue
		}
		err := sc.run(args[1:], stdout, stderr)
		var status exitStatus
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &status):
			return int(status)
		}
		fmt.Fprintf(stderr, "chc %s: %v\n", sc.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "chc: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: chc <subcommand> [flags]")
	fmt.Fprintln(w, "\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(w, "\nRun \"chc <subcommand> -h\" for its flags.")
}

// exitStatus ends chc with this status and no further message: whatever
// went wrong has already been reported.
type exitStatus int

func (s exitStatus) Error() string { return "exit status " + strconv.Itoa(int(s)) }

// newFlags returns a subcommand's flag set, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("chc "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses a subcommand's arguments. The flag package has already
// printed a bad flag and the usage, so that error becomes exit status 2;
// -h comes back as flag.ErrHelp, which exits 0.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return exitStatus(2)
	}
	return err
}

const (
	deltaUsage        = "coherence rate adjustment (default: paper's 0.124)"
	workloadFileUsage = "JSON workload description (overrides -workload)"
)

// profileFlags registers -cpuprofile and -memprofile; profiled honours
// them.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	mem = fs.String("memprofile", "", "write a heap profile to this file on exit (inspect with `go tool pprof`)")
	return cpu, mem
}

// profiled runs fn under the CPU and heap profiles the two paths name
// (empty disables one). A profile that cannot be finalized fails the run.
func profiled(cpu, mem string, fn func() error) error {
	stop, err := profiling.Start(cpu, mem)
	if err != nil {
		return err
	}
	err = fn()
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// scale maps a -paper-scale flag to the kernels' problem size.
func scale(paper bool) workloads.Scale {
	if paper {
		return workloads.ScalePaper
	}
	return workloads.ScaleSmall
}

// loadWorkload resolves the model workload named by -workload-file,
// -measured and -workload, in that order of precedence. A measured
// kernel's characterization goes to report.
func loadWorkload(file, name string, measured bool, report func(workloads.Characterization)) (core.Workload, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return core.Workload{}, err
		}
		defer f.Close()
		wl, err := core.ReadWorkload(f)
		if err != nil {
			return core.Workload{}, fmt.Errorf("reading %s: %w", file, err)
		}
		return wl, nil
	case measured:
		wl, c, err := experiments.MeasuredWorkload(name)
		if err == nil {
			report(c)
		}
		return wl, err
	}
	return experiments.ResolveWorkload(name, false)
}
