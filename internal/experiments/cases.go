package experiments

import (
	"fmt"
	"time"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
	"memhier/internal/stopwatch"
	"memhier/internal/tabulate"
)

// CaseResult is one §6 case-study outcome for one workload.
type CaseResult struct {
	Workload string
	Best     cost.Scored
	Feasible int
}

// Case1 reproduces the first §6 case study: the best platform for each
// paper workload under a $5,000 budget (which only covers clusters of
// workstations at 1999 prices).
func Case1(opts core.Options) ([]CaseResult, *tabulate.Table, error) {
	return caseStudy("Case 1: best platform under a $5,000 budget", 5000, opts)
}

// Case2 reproduces the second §6 case study: a $20,000 budget, which opens
// the SMP and cluster-of-SMPs design space.
func Case2(opts core.Options) ([]CaseResult, *tabulate.Table, error) {
	return caseStudy("Case 2: best platform under a $20,000 budget", 20000, opts)
}

func caseStudy(title string, budget float64, opts core.Options) ([]CaseResult, *tabulate.Table, error) {
	t := tabulate.New(title,
		"Program", "Best platform", "Cost $", "E(Instr) cycles", "Feasible configs")
	var out []CaseResult
	for _, wl := range append(core.PaperWorkloads(), core.PaperTPCC()) {
		best, all, err := cost.Optimize(budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: case study %q (%s): %w", title, wl.Name, err)
		}
		out = append(out, CaseResult{Workload: wl.Name, Best: best, Feasible: len(all)})
		t.AddRow(wl.Name, best.Config.Name,
			fmt.Sprintf("%.0f", best.Cost),
			fmt.Sprintf("%.3f", best.EInstr),
			fmt.Sprint(len(all)))
	}
	return out, t, nil
}

// Case3 reproduces the third §6 case study: upgrading an existing cluster
// (a two-node 10 Mb Ethernet cluster of 32 MB workstations) with a budget
// increase, for each workload.
func Case3(budgetIncrease float64, opts core.Options) ([]cost.UpgradePlan, *tabulate.Table, error) {
	existing := machine.Config{
		Name: "existing", Kind: machine.ClusterWS, N: 2, Procs: 1,
		CacheBytes: 256 << 10, MemoryBytes: 32 << 20, Net: machine.NetBus10, ClockMHz: 200,
	}
	t := tabulate.New(
		fmt.Sprintf("Case 3: upgrading a 2-node 10Mb cluster with $%.0f", budgetIncrease),
		"Program", "Upgrade to", "Spend $", "Old E(Instr)", "New E(Instr)", "Speedup")
	var plans []cost.UpgradePlan
	for _, wl := range append(core.PaperWorkloads(), core.PaperTPCC()) {
		plan, err := cost.Upgrade(existing, budgetIncrease, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: case 3 (%s): %w", wl.Name, err)
		}
		plans = append(plans, plan)
		t.AddRow(wl.Name, plan.To.Name,
			fmt.Sprintf("%.0f", plan.UpgradeCost),
			fmt.Sprintf("%.3f", plan.OldEInstr),
			fmt.Sprintf("%.3f", plan.NewEInstr),
			fmt.Sprintf("%.2fx", plan.Speedup))
	}
	return plans, t, nil
}

// FFT4xResult quantifies the §6 headline observation.
type FFT4xResult struct {
	EthernetE float64 // 4 workstations, 64 MB each, 10 Mb Ethernet
	ATME      float64 // 3 workstations, 32 MB each, 155 Mb ATM switch
	Ratio     float64 // Ethernet / ATM
}

// CaseFFT4x reproduces the §6 observation that FFT ran about 4× slower on a
// slow Ethernet cluster of four 64 MB workstations than on an ATM cluster
// of three 32 MB workstations of the same cost.
func CaseFFT4x(opts core.Options) (FFT4xResult, *tabulate.Table, error) {
	fft, _ := core.PaperWorkload("FFT")
	eth := machine.Config{Name: "4xWS-10Mb-64MB", Kind: machine.ClusterWS, N: 4, Procs: 1,
		CacheBytes: 256 << 10, MemoryBytes: 64 << 20, Net: machine.NetBus10, ClockMHz: 200}
	atm := machine.Config{Name: "3xWS-ATM-32MB", Kind: machine.ClusterWS, N: 3, Procs: 1,
		CacheBytes: 256 << 10, MemoryBytes: 32 << 20, Net: machine.NetSwitch155, ClockMHz: 200}
	re, err := core.Evaluate(eth, fft, opts)
	if err != nil {
		return FFT4xResult{}, nil, err
	}
	ra, err := core.Evaluate(atm, fft, opts)
	if err != nil {
		return FFT4xResult{}, nil, err
	}
	res := FFT4xResult{EthernetE: re.EInstr, ATME: ra.EInstr, Ratio: re.EInstr / ra.EInstr}
	t := tabulate.New("§6: FFT on two same-cost clusters (paper: Ethernet ≈ 4× slower)",
		"Cluster", "E(Instr) cycles")
	t.AddRow(eth.Name, fmt.Sprintf("%.2f", re.EInstr))
	t.AddRow(atm.Name, fmt.Sprintf("%.2f", ra.EInstr))
	t.AddRow("ratio", fmt.Sprintf("%.2fx", res.Ratio))
	return res, t, nil
}

// Principles renders the §6 classification of the paper's workloads.
func Principles() *tabulate.Table {
	t := tabulate.New("§6 principles: recommended platform per workload class",
		"Program", "gamma", "beta", "Recommendation")
	for _, wl := range append(core.PaperWorkloads(), core.PaperTPCC()) {
		t.AddRow(wl.Name,
			fmt.Sprintf("%.2f", wl.Locality.Gamma),
			fmt.Sprintf("%.2f", wl.Locality.Beta),
			cost.Recommend(wl).String())
	}
	return t
}

// SpeedComparison times one model evaluation against one simulation of the
// same configuration, reproducing the §5.3 observation that the model is
// orders of magnitude cheaper (the paper: 0.5–1 s model vs > 20 min
// simulation).
type SpeedComparison struct {
	ModelTime time.Duration
	SimTime   time.Duration
	Ratio     float64
}

// ModelVsSimSpeed measures the §5.3 cost gap on one representative
// configuration and workload.
func (s *Suite) ModelVsSimSpeed() (SpeedComparison, error) {
	cfg, err := s.scaledConfig(machine.WSCatalog()[1]) // C8
	if err != nil {
		return SpeedComparison{}, err
	}
	w := s.wls[0] // FFT
	char, err := s.characterize(w)
	if err != nil {
		return SpeedComparison{}, err
	}
	wl := ModelWorkload(char)

	elapsed := stopwatch.Start()
	const evals = 100
	for i := 0; i < evals; i++ {
		if _, err := core.Evaluate(cfg, wl, s.opts.Model); err != nil {
			return SpeedComparison{}, err
		}
	}
	modelTime := elapsed() / evals

	// The simulation runs the kernel as it goes, as the paper's
	// execution-driven simulators do, so its time includes trace generation.
	elapsed = stopwatch.Start()
	if _, err := StreamSimulate(w, cfg); err != nil {
		return SpeedComparison{}, err
	}
	simTime := elapsed()

	sc := SpeedComparison{ModelTime: modelTime, SimTime: simTime}
	if modelTime > 0 {
		sc.Ratio = float64(simTime) / float64(modelTime)
	}
	return sc, nil
}
