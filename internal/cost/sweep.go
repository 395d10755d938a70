package cost

import (
	"fmt"
	"sort"

	"memhier/internal/core"
)

// SweepPoint is one budget of a sweep: the winning configuration at that
// spend level.
type SweepPoint struct {
	Budget float64
	Best   Scored
	// Feasible counts the configurations under the budget.
	Feasible int
}

// BudgetSweep runs the eq. 6 optimization at each budget (ascending) and
// returns the winners. Budgets with no feasible configuration are skipped.
// It is the brute-force reference OptimizeBudgets is tested against.
//
//chc:allow deadexport -- the reference the OptimizeBudgets tests compare against
func BudgetSweep(budgets []float64, wl core.Workload, cat Catalog, space Space, opts core.Options) ([]SweepPoint, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("cost: empty budget list")
	}
	sorted := append([]float64(nil), budgets...)
	sort.Float64s(sorted)
	var out []SweepPoint
	for _, b := range sorted {
		best, all, err := Optimize(b, wl, cat, space, opts)
		if err != nil {
			continue
		}
		out = append(out, SweepPoint{Budget: b, Best: best, Feasible: len(all)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cost: no budget in the sweep is feasible")
	}
	return out, nil
}
