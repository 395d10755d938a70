package main

import (
	"fmt"
	"io"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
	"memhier/internal/workloads"
)

// runAdvisor is the integrated design tool the paper's §7 envisions: it
// chains the three supporting tools — trace collection, trace analysis
// (α, β, γ), and budget-constrained configuration generation — into one
// "timely and effective vehicle to support the design of cost effective
// parallel cluster computing".
//
// Given a workload (a named kernel, characterized on the fly, or paper
// Table 2 parameters) and a budget, it reports the workload class and §6
// principle, the optimal platform with runners-up, a machine-count
// scalability sweep for the winning cluster family, and resource
// sensitivities backing the upgrade rule.
func runAdvisor(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("advisor", stderr)
	var (
		budget       = fs.Float64("budget", 5000, "construction budget in dollars")
		workload     = fs.String("workload", "FFT", "workload name")
		workloadFile = fs.String("workload-file", "", workloadFileUsage)
		measured     = fs.Bool("measured", false, "characterize the instrumented kernel instead of using paper parameters")
		top          = fs.Int("top", 5, "runners-up to print")
		delta        = fs.Float64("delta", 0, deltaUsage)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	opts := core.Options{CoherenceAdjust: *delta}

	// Step 1-2 (paper §7 tools 1+2): obtain the workload parameters.
	fromPaper := *workloadFile == "" && !*measured
	if *workloadFile == "" && *measured {
		fmt.Fprintf(stdout, "collecting and analyzing the %s address stream...\n", *workload)
	}
	wl, err := loadWorkload(*workloadFile, *workload, *measured, func(c workloads.Characterization) {
		fmt.Fprintf(stdout, "  alpha=%.3f beta=%.2f gamma=%.3f kappa=%.2f footprint=%d lines (R2 %.3f)\n",
			c.Params.Alpha, c.Params.Beta, c.Params.Gamma, c.Conflict, c.Distinct, c.Fit.R2)
	})
	if err != nil {
		if fromPaper {
			err = fmt.Errorf("%w (or pass -measured with a kernel name)", err)
		}
		return err
	}

	// Classification: the §6 principle.
	fmt.Fprintf(stdout, "\nworkload class: %s\n", describeClass(wl))
	fmt.Fprintf(stdout, "§6 principle:   %s\n", cost.Recommend(wl))

	// Step 3 (paper §7 tool 3): enumerate configurations under the budget.
	best, all, err := cost.Optimize(*budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\noptimal platform under $%.0f (%d feasible):\n", *budget, len(all))
	fmt.Fprintf(stdout, "  %s — $%.0f, E(Instr) = %.3f cycles\n", best.Config.Name, best.Cost, best.EInstr)
	printRanked(stdout, all[1:max(min(*top, len(all)), 1)], 1)

	// Scalability of the winning family (how far adding machines helps).
	if best.Config.N >= 1 && best.Config.Kind != machine.SMP && best.Config.Net != machine.NetNone {
		pts, err := core.Scalability(best.Config, wl, opts, 16)
		if err == nil {
			fmt.Fprintln(stdout, "\nscaling the winner's machine count (ignoring budget):")
			for _, p := range pts {
				if p.N == 1 || p.N%2 == 0 {
					fmt.Fprintf(stdout, "  N=%-3d E=%-9.3f speedup %.2fx efficiency %.2f\n",
						p.N, p.EInstr, p.Speedup, p.Efficiency)
				}
			}
			if opt, err := core.OptimalMachines(pts); err == nil {
				fmt.Fprintf(stdout, "  best machine count: %d\n", opt.N)
			}
		}
	}

	// Sensitivities: what to upgrade first (the §6 rule, quantified).
	sens, err := core.Sensitivities(best.Config, wl, opts)
	if err == nil && len(sens) > 0 {
		fmt.Fprintln(stdout, "\nresource sensitivities of the winner (dE% per +1% resource):")
		for _, s := range sens {
			fmt.Fprintf(stdout, "  %-16s %+0.4f\n", s.Resource, s.Elasticity)
		}
		if advice, err := cost.UpgradeAdvice(best.Config, wl, opts); err == nil {
			fmt.Fprintf(stdout, "upgrade rule: %s\n", advice)
		}
	}
	return nil
}

func describeClass(wl core.Workload) string {
	bound := "CPU bound (small gamma)"
	if wl.Locality.Gamma >= 0.35 {
		bound = "memory bound (large gamma)"
	}
	loc := "good locality (beta < 100)"
	if wl.Locality.Beta >= 1000 {
		loc = "very large beta"
	} else if wl.Locality.Beta >= 100 {
		loc = "poor locality (beta > 100)"
	}
	return bound + ", " + loc
}
