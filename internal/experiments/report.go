package experiments

import (
	"fmt"
	"io"
	"sync"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/tabulate"
)

// WriteReport renders the full reproduction as a self-contained Markdown
// report: every table and figure with paper-vs-measured commentary, the
// case studies, and the extension experiments. It is the document form of
// WriteAll (`chc repro -report`).
func WriteReport(w io.Writer, opts Options) error {
	s := NewSuite(opts)

	// The three validation figures dominate the report's cost and share
	// one simulated side of C1–C15; compute them while the front matter
	// renders (safe: the Suite's caches are single-flight).
	figs := make([]Validation, 3)
	figErrs := make([]error, 3)
	var figWg sync.WaitGroup
	for i := range figs {
		figWg.Add(1)
		go func(i int) {
			defer figWg.Done()
			figs[i], figErrs[i] = s.figure(i+2, machine.Catalog())
		}(i)
	}

	fmt.Fprintf(w, "# Reproduction report — Du & Zhang, IPPS 1999\n\n")
	fmt.Fprintf(w, "_The Impact of Memory Hierarchies on Cluster Computing._")
	// No wall-clock read here: an implicit timestamp would make every run's
	// report differ. Callers that want one say so through GeneratedAt.
	if opts.GeneratedAt != "" {
		fmt.Fprintf(w, " Generated %s.", opts.GeneratedAt)
	}
	fmt.Fprintf(w, "\n\n")

	section := func(title, narrative string, tables ...*tabulate.Table) {
		fmt.Fprintf(w, "## %s\n\n", title)
		if narrative != "" {
			fmt.Fprintf(w, "%s\n\n", narrative)
		}
		for _, t := range tables {
			fmt.Fprintln(w, "```")
			t.Render(w)
			fmt.Fprintln(w, "```")
			fmt.Fprintln(w)
		}
	}

	section("Table 1 — platform taxonomy",
		"Structural reproduction of the three platform classes and their extra hierarchy levels.",
		Table1())

	_, t2, err := s.Table2()
	if err != nil {
		return err
	}
	section("Table 2 — program characterization",
		"Locality parameters measured from this repository's instrumented kernels at "+
			"data-item granularity, next to the paper's published values. Absolute "+
			"numbers differ (different tracer, compiler model, problem scale); the "+
			"γ ordering FFT < LU < Radix < EDGE and Radix's worst-of-the-scientific-"+
			"kernels locality reproduce.",
		t2, PaperTable2())

	section("Tables 3–5 — configuration catalogs",
		"Exact reproduction of C1–C15.",
		Table3(), Table4(), Table5())

	figWg.Wait()
	for _, err := range figErrs {
		if err != nil {
			return err
		}
	}
	for _, v := range figs {
		section(v.Title,
			fmt.Sprintf("Mean |model−sim| deviation %.1f%%, worst point %.1f%%. "+
				"The paper reports 5–10%% against its own MINT front-end; see "+
				"EXPERIMENTS.md for why the bands differ and which orderings are asserted.",
				v.MeanAbsDiff(), v.MaxAbsDiff()),
			v.Table())
	}

	_, c1, err := Case1(opts.Model)
	if err != nil {
		return err
	}
	_, c2, err := Case2(opts.Model)
	if err != nil {
		return err
	}
	_, c3, err := Case3(2000, opts.Model)
	if err != nil {
		return err
	}
	fftRes, c4, err := CaseFFT4x(opts.Model)
	if err != nil {
		return err
	}
	section("§6 case studies",
		fmt.Sprintf("At $5,000 only workstation platforms are feasible (the paper's premise); "+
			"$20,000 moves Radix to a 4-way SMP (the paper's principle). The FFT "+
			"Ethernet-vs-ATM pair reproduces in direction with a measured factor of %.1f× "+
			"(paper: ≈4×).", fftRes.Ratio),
		c1, c2, c3, c4, Principles())

	_, modern, err := CaseModernNetworks(opts.Model)
	if err != nil {
		return err
	}
	fftWl, _ := core.PaperWorkload("FFT")
	_, gap, err := CaseSpeedGap(fftWl, opts.Model)
	if err != nil {
		return err
	}
	section("Extensions",
		"Beyond-1999 networks (derived from first principles; the cluster/SMP "+
			"recommendation flips at gigabit fabrics) and the quantified "+
			"processor–memory speed gap.",
		modern, gap)

	sc, err := s.ModelVsSimSpeed()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## §5.3 — cost of prediction\n\nOne model evaluation: %v. One simulation: %v. Ratio: %.0f×.\n\n",
		sc.ModelTime, sc.SimTime, sc.Ratio)

	fmt.Fprintf(w, "## Reproduction scope\n\nConfigurations: %d (C1–C15). Programs: %d + TPC-C. ",
		len(machine.Catalog()), len(s.Workloads()))
	fmt.Fprintf(w, "Validation scale: problem sizes at `ScaleSmall`, capacities ÷%d (see EXPERIMENTS.md).\n",
		s.opts.divisor())
	return nil
}
