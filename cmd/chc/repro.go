package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"memhier/internal/core"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/tabulate"
)

// runRepro regenerates the paper's evaluation artifacts: Tables 1–5, the
// model-vs-simulation validation of Figures 2–4, and the §6 case studies.
//
// -all renders every artifact over a worker pool (-parallel, default the
// CPU count); output is byte-identical for any worker count. -progress
// prints a per-artifact timing line to stderr as each one finishes.
func runRepro(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("repro", stderr)
	var (
		all       = fs.Bool("all", false, "regenerate everything")
		table     = fs.Int("table", 0, "render one table (1-5)")
		figure    = fs.Int("figure", 0, "render one validation figure (2-4)")
		caseID    = fs.String("case", "", "render one case study (1, 2, 3, fft4x, principles)")
		divisor   = fs.Int("divisor", 0, "capacity divisor for validation runs (default 16)")
		csv       = fs.Bool("csv", false, "emit figures as CSV series instead of tables")
		chart     = fs.Bool("chart", false, "emit figures as bar charts instead of tables")
		delta     = fs.Float64("delta", 0, deltaUsage)
		calibrate = fs.Bool("calibrate", false, "search the coherence adjustment minimizing model-vs-sim error")
		report    = fs.String("report", "", "write the full reproduction as a Markdown report to this file")
		stamp     = fs.Bool("stamp", false, "embed the current UTC time in the report header (makes -report output differ run-to-run)")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "artifact-level worker count for -all (output is identical for any value)")
		progress  = fs.Bool("progress", false, "print per-artifact timing lines to stderr as artifacts finish")
	)
	cpuProf, memProf := profileFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	opts := experiments.Options{Divisor: *divisor}
	opts.Model.CoherenceAdjust = *delta
	if *stamp {
		// The wall clock stays in the CLI layer: experiments is a
		// //chc:deterministic package and embeds only what it is handed.
		opts.GeneratedAt = time.Now().UTC().Format("2006-01-02 15:04 UTC")
	}
	return profiled(*cpuProf, *memProf, func() error {
		if *parallel < 1 {
			return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
		}
		var reporter experiments.Progress
		if *progress {
			start := time.Now()
			reporter = func(name string, d time.Duration, err error) {
				status := "done"
				if err != nil {
					status = "FAILED: " + err.Error()
				}
				fmt.Fprintf(stderr, "chc repro: [%7.3fs] %-16s %8.3fs  %s\n",
					time.Since(start).Seconds(), name, d.Seconds(), status)
			}
		}

		switch {
		case *report != "":
			f, err := os.Create(*report)
			if err != nil {
				return err
			}
			err = experiments.WriteReport(f, opts)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "report written to %s\n", *report)
		case *all:
			return experiments.WriteAllParallel(stdout, opts, *parallel, reporter)
		case *calibrate:
			s := experiments.NewSuite(opts)
			clusters := append(machine.WSCatalog(), machine.SMPClusterCatalog()...)
			best, diff, err := s.CalibrateCoherenceAdjust(clusters, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "calibrated coherence adjustment δ = %.2f (mean |model−sim| = %.1f%%)\n", best, diff)
			fmt.Fprintf(stdout, "(the paper's empirically determined value was 12.4%%)\n")
		case *table != 0:
			return renderTable(stdout, experiments.NewSuite(opts), *table)
		case *figure != 0:
			return renderFigure(stdout, experiments.NewSuite(opts), *figure, *csv, *chart)
		case *caseID != "":
			return renderCase(stdout, *caseID, opts.Model)
		default:
			fs.Usage()
			return exitStatus(2)
		}
		return nil
	})
}

// renderTable serves -table from the same named-artifact registry that
// -all renders, so the dispatch lives in one place.
func renderTable(w io.Writer, s *experiments.Suite, n int) error {
	if n < 1 || n > 5 {
		return fmt.Errorf("no table %d (have 1-5)", n)
	}
	names := []string{fmt.Sprintf("table%d", n)}
	if n == 2 {
		names = append(names, "table2-paper")
	}
	for _, name := range names {
		a, err := s.Artifact(name)
		if err != nil {
			return err
		}
		if err := a.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func renderFigure(w io.Writer, s *experiments.Suite, n int, csv, chart bool) error {
	figures := map[int]func() (experiments.Validation, error){2: s.Figure2, 3: s.Figure3, 4: s.Figure4}
	figure, ok := figures[n]
	if !ok {
		return fmt.Errorf("no figure %d (have 2-4)", n)
	}
	v, err := figure()
	if err != nil {
		return err
	}
	switch {
	case csv:
		return v.CSV().CSV(w)
	case chart:
		for _, c := range v.Charts() {
			c.Render(w)
			fmt.Fprintln(w)
		}
	default:
		v.Table().Render(w)
	}
	return nil
}

func renderCase(w io.Writer, id string, opts core.Options) error {
	var t *tabulate.Table
	var err error
	switch id {
	case "1":
		_, t, err = experiments.Case1(opts)
	case "2":
		_, t, err = experiments.Case2(opts)
	case "3":
		_, t, err = experiments.Case3(2000, opts)
	case "fft4x":
		_, t, err = experiments.CaseFFT4x(opts)
	case "principles":
		t = experiments.Principles()
	case "modern":
		_, t, err = experiments.CaseModernNetworks(opts)
	case "sizescaling":
		_, t, err = experiments.CaseSizeScaling(opts)
	case "speedgap":
		for _, name := range []string{"FFT", "Radix"} {
			wl, _ := core.PaperWorkload(name)
			if _, t, err = experiments.CaseSpeedGap(wl, opts); err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
		}
		return nil
	case "map":
		for _, alpha := range []float64{1.15, 1.5, 1.8} {
			cells, t, err := experiments.PrincipleMap(alpha, nil, nil, 20000, opts)
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintf(w, "  classifier/optimizer agreement: %.0f%%\n\n", experiments.AgreementRate(cells)*100)
		}
		return nil
	default:
		return fmt.Errorf("no case %q (have 1, 2, 3, fft4x, principles, modern, map, speedgap, sizescaling)", id)
	}
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}
