package cost

import (
	"testing"

	"memhier/internal/core"
)

func TestBudgetSweep(t *testing.T) {
	wl, _ := core.PaperWorkload("Radix")
	pts, err := BudgetSweep([]float64{20000, 2000, 8000}, wl, DefaultCatalog(), DefaultSpace(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	// Sorted ascending, winners never get worse, feasible set never
	// shrinks.
	for i := 1; i < len(pts); i++ {
		if pts[i].Budget < pts[i-1].Budget {
			t.Error("sweep not sorted")
		}
		if pts[i].Best.Seconds > pts[i-1].Best.Seconds+1e-18 {
			t.Errorf("winner worsened with budget: %v after %v", pts[i].Best.Seconds, pts[i-1].Best.Seconds)
		}
		if pts[i].Feasible < pts[i-1].Feasible {
			t.Error("feasible set shrank with budget")
		}
	}
	if _, err := BudgetSweep(nil, wl, DefaultCatalog(), DefaultSpace(), core.Options{}); err == nil {
		t.Error("empty budget list accepted")
	}
	if _, err := BudgetSweep([]float64{1}, wl, DefaultCatalog(), DefaultSpace(), core.Options{}); err == nil {
		t.Error("infeasible-only sweep accepted")
	}
}
