package main

import (
	"fmt"
	"io"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
	"memhier/internal/tabulate"
)

// runCompare puts two platform configurations head to head across the
// paper's workload suite: modeled E(Instr), cost, and the per-level
// breakdown of where they differ — the purchasing question ("these two
// quotes, which one?") the paper's model exists to answer quickly.
func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("compare", stderr)
	var (
		aName    = fs.String("a", "C8", "first configuration (C1-C15)")
		bName    = fs.String("b", "C10", "second configuration (C1-C15)")
		workload = fs.String("workload", "", "compare on one workload only (default: the whole suite)")
		delta    = fs.Float64("delta", 0, deltaUsage)
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	var cfgs [2]machine.Config
	var prices [2]float64
	cat := cost.DefaultCatalog()
	for i, name := range []string{*aName, *bName} {
		var err error
		if cfgs[i], err = machine.ByName(name); err != nil {
			return err
		}
	}
	for i, c := range cfgs {
		var err error
		if prices[i], err = cat.ClusterCost(c); err != nil {
			return err
		}
	}
	a, b := cfgs[0], cfgs[1]
	for i, c := range cfgs {
		fmt.Fprintf(stdout, "%c: %s — %v, n=%d, N=%d, %dKB cache, %dMB memory, %v ($%.0f)\n",
			'A'+i, c.Name, c.Kind, c.Procs, c.N, c.CacheBytes>>10, c.MemoryBytes>>20, c.Net, prices[i])
	}
	fmt.Fprintln(stdout)

	wls := append(core.PaperWorkloads(), core.PaperTPCC())
	if *workload != "" {
		wl, err := core.PaperWorkloadByName(*workload)
		if err != nil {
			return err
		}
		wls = []core.Workload{wl}
	}

	opts := core.Options{CoherenceAdjust: *delta}
	t := tabulate.New("modeled E(Instr), cycles (lower is better)",
		"Program", a.Name, b.Name, "winner", "factor")
	winsA, winsB := 0, 0
	var results [2]core.Result
	for _, wl := range wls {
		for i, c := range cfgs {
			var err error
			if results[i], err = core.Evaluate(c, wl, opts); err != nil {
				return fmt.Errorf("%s on %s: %w", wl.Name, c.Name, err)
			}
		}
		ra, rb := results[0], results[1]
		winner, factor := a.Name, rb.EInstr/ra.EInstr
		if rb.EInstr < ra.EInstr {
			winner, factor = b.Name, ra.EInstr/rb.EInstr
			winsB++
		} else {
			winsA++
		}
		t.AddRow(wl.Name,
			fmt.Sprintf("%.3f", ra.EInstr),
			fmt.Sprintf("%.3f", rb.EInstr),
			winner, fmt.Sprintf("%.2fx", factor))
	}
	t.Render(stdout)
	fmt.Fprintf(stdout, "\nscore: %s %d — %d %s; dollars per unit speed favour the cheaper box when factors are near 1\n",
		a.Name, winsA, winsB, b.Name)

	if len(wls) == 1 {
		// Per-level breakdown for the single-workload comparison; results
		// still holds that workload's evaluations.
		for i, c := range cfgs {
			fmt.Fprintf(stdout, "\n%s levels for %s:\n", c.Name, wls[0].Name)
			for _, lv := range results[i].Levels {
				fmt.Fprintf(stdout, "  %-14s miss=%.4f contended=%.1f cycles/ref=%.3f\n",
					lv.Name, lv.MissFraction, lv.Contended, lv.CyclesPerRef)
			}
		}
	}
	return nil
}
