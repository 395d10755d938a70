// Command chc-repro regenerates the paper's evaluation artifacts: Tables
// 1–5, the model-vs-simulation validation of Figures 2–4, and the §6 case
// studies.
//
// Usage:
//
//	chc-repro -all [-parallel 8] [-progress]
//	chc-repro -table 2
//	chc-repro -figure 3 [-divisor 16]
//	chc-repro -case 1 | -case fft4x | -case principles
//	chc-repro -calibrate
//
// -all renders every artifact over a worker pool (-parallel, default the
// CPU count); output is byte-identical for any worker count. -progress
// prints a per-artifact timing line to stderr as each one finishes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"memhier/internal/core"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/profiling"
)

func main() {
	var (
		all       = flag.Bool("all", false, "regenerate everything")
		table     = flag.Int("table", 0, "render one table (1-5)")
		figure    = flag.Int("figure", 0, "render one validation figure (2-4)")
		caseID    = flag.String("case", "", "render one case study (1, 2, 3, fft4x, principles)")
		divisor   = flag.Int("divisor", 0, "capacity divisor for validation runs (default 16)")
		csv       = flag.Bool("csv", false, "emit figures as CSV series instead of tables")
		chart     = flag.Bool("chart", false, "emit figures as bar charts instead of tables")
		delta     = flag.Float64("delta", 0, "coherence rate adjustment (default: paper's 0.124)")
		calibrate = flag.Bool("calibrate", false, "search the coherence adjustment minimizing model-vs-sim error")
		report    = flag.String("report", "", "write the full reproduction as a Markdown report to this file")
		stamp     = flag.Bool("stamp", false, "embed the current UTC time in the report header (makes -report output differ run-to-run)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "artifact-level worker count for -all (output is identical for any value)")
		progress  = flag.Bool("progress", false, "print per-artifact timing lines to stderr as artifacts finish")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit (inspect with `go tool pprof`)")
	)
	flag.Parse()

	opts := experiments.Options{Divisor: *divisor}
	opts.Model.CoherenceAdjust = *delta
	if *stamp {
		// The wall clock stays in the CLI layer: experiments is a
		// //chc:deterministic package and embeds only what it is handed.
		opts.GeneratedAt = time.Now().UTC().Format("2006-01-02 15:04 UTC")
	}
	out := os.Stdout

	run := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "chc-repro:", err)
			os.Exit(1)
		}
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	run(err)
	defer func() {
		run(stopProf())
	}()
	if *parallel < 1 {
		run(fmt.Errorf("-parallel must be >= 1, got %d", *parallel))
	}
	var reporter experiments.Progress
	if *progress {
		start := time.Now()
		reporter = func(name string, d time.Duration, err error) {
			status := "done"
			if err != nil {
				status = "FAILED: " + err.Error()
			}
			fmt.Fprintf(os.Stderr, "chc-repro: [%7.3fs] %-16s %8.3fs  %s\n",
				time.Since(start).Seconds(), name, d.Seconds(), status)
		}
	}

	switch {
	case *report != "":
		f, err := os.Create(*report)
		run(err)
		err = experiments.WriteReport(f, opts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		run(err)
		fmt.Fprintf(out, "report written to %s\n", *report)
	case *all:
		run(experiments.WriteAllParallel(out, opts, *parallel, reporter))
	case *calibrate:
		s := experiments.NewSuite(opts)
		clusters := append(machine.WSCatalog(), machine.SMPClusterCatalog()...)
		best, diff, err := s.CalibrateCoherenceAdjust(clusters, nil)
		run(err)
		fmt.Fprintf(out, "calibrated coherence adjustment δ = %.2f (mean |model−sim| = %.1f%%)\n", best, diff)
		fmt.Fprintf(out, "(the paper's empirically determined value was 12.4%%)\n")
	case *table != 0:
		// The tables are served from the same named-artifact registry that
		// -all renders, so the dispatch lives in one place.
		s := experiments.NewSuite(opts)
		if *table < 1 || *table > 5 {
			run(fmt.Errorf("no table %d (have 1-5)", *table))
		}
		names := []string{fmt.Sprintf("table%d", *table)}
		if *table == 2 {
			names = append(names, "table2-paper")
		}
		for _, name := range names {
			a, err := s.Artifact(name)
			run(err)
			run(a.Render(out))
		}
	case *figure != 0:
		s := experiments.NewSuite(opts)
		var v experiments.Validation
		var err error
		switch *figure {
		case 2:
			v, err = s.Figure2()
		case 3:
			v, err = s.Figure3()
		case 4:
			v, err = s.Figure4()
		default:
			err = fmt.Errorf("no figure %d (have 2-4)", *figure)
		}
		run(err)
		switch {
		case *csv:
			run(v.CSV().CSV(out))
		case *chart:
			for _, c := range v.Charts() {
				c.Render(out)
				fmt.Fprintln(out)
			}
		default:
			v.Table().Render(out)
		}
	case *caseID != "":
		var err error
		switch *caseID {
		case "1":
			_, tab, e := experiments.Case1(opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "2":
			_, tab, e := experiments.Case2(opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "3":
			_, tab, e := experiments.Case3(2000, opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "fft4x":
			_, tab, e := experiments.CaseFFT4x(opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "principles":
			experiments.Principles().Render(out)
		case "modern":
			_, tab, e := experiments.CaseModernNetworks(opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "speedgap":
			for _, name := range []string{"FFT", "Radix"} {
				wl, _ := core.PaperWorkload(name)
				_, tab, e := experiments.CaseSpeedGap(wl, opts.Model)
				if e != nil {
					err = e
					break
				}
				tab.Render(out)
				fmt.Fprintln(out)
			}
		case "sizescaling":
			_, tab, e := experiments.CaseSizeScaling(opts.Model)
			err = e
			if e == nil {
				tab.Render(out)
			}
		case "map":
			for _, alpha := range []float64{1.15, 1.5, 1.8} {
				cells, tab, e := experiments.PrincipleMap(alpha, nil, nil, 20000, opts.Model)
				if e != nil {
					err = e
					break
				}
				tab.Render(out)
				fmt.Fprintf(out, "  classifier/optimizer agreement: %.0f%%\n\n",
					experiments.AgreementRate(cells)*100)
			}
		default:
			err = fmt.Errorf("no case %q (have 1, 2, 3, fft4x, principles, modern, map, speedgap, sizescaling)", *caseID)
		}
		run(err)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
