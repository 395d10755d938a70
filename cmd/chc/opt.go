package main

import (
	"fmt"
	"io"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
)

// runOpt answers the paper's two design questions: the best cluster
// platform for a budget and workload (eq. 6), and the best upgrade of an
// existing cluster for a budget increase (§6).
func runOpt(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("opt", stderr)
	var (
		budget       = fs.Float64("budget", 5000, "budget in dollars (or budget increase with -upgrade)")
		workload     = fs.String("workload", "FFT", "paper workload: FFT, LU, Radix, EDGE, TPC-C")
		workloadFile = fs.String("workload-file", "", workloadFileUsage)
		top          = fs.Int("top", 5, "how many ranked configurations to print")
		upgrade      = fs.Bool("upgrade", false, "upgrade an existing cluster instead of building one")
		config       = fs.String("config", "C7", "existing cluster (C1-C15) for -upgrade")
		delta        = fs.Float64("delta", 0, deltaUsage)
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	wl, err := loadWorkload(*workloadFile, *workload, false, nil)
	if err != nil {
		return err
	}
	opts := core.Options{CoherenceAdjust: *delta}

	if *upgrade {
		existing, err := machine.ByName(*config)
		if err != nil {
			return err
		}
		plan, err := cost.Upgrade(existing, *budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "existing:  %s (%s)\n", existing.Name, existing.Kind)
		fmt.Fprintf(stdout, "upgrade:   %s\n", plan.To.Name)
		fmt.Fprintf(stdout, "spend:     $%.0f of $%.0f\n", plan.UpgradeCost, *budget)
		fmt.Fprintf(stdout, "E(Instr):  %.3f -> %.3f cycles (%.2fx speedup)\n",
			plan.OldEInstr, plan.NewEInstr, plan.Speedup)
		if advice, err := cost.UpgradeAdvice(existing, wl, opts); err == nil {
			fmt.Fprintf(stdout, "principle: %s\n", advice)
		}
		return nil
	}

	best, all, err := cost.Optimize(*budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload:  %s — recommended class: %s\n", wl.Name, cost.Recommend(wl))
	fmt.Fprintf(stdout, "budget:    $%.0f (%d feasible configurations)\n", *budget, len(all))
	fmt.Fprintf(stdout, "winner:    %s at $%.0f, E(Instr) = %.3f cycles\n\n", best.Config.Name, best.Cost, best.EInstr)
	n := min(*top, len(all))
	fmt.Fprintf(stdout, "top %d:\n", n)
	printRanked(stdout, all[:max(n, 0)], 0)
	return nil
}

// printRanked prints scored configurations as a numbered list, counting
// from first+1.
func printRanked(w io.Writer, ranked []cost.Scored, first int) {
	for i, s := range ranked {
		fmt.Fprintf(w, "  %2d. %-45s $%-6.0f E=%.3f\n", first+i+1, s.Config.Name, s.Cost, s.EInstr)
	}
}
