package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/tabulate"
	"memhier/internal/workloads"
)

// ValidationRow is one modeled-vs-simulated point of Figures 2–4.
type ValidationRow struct {
	Config   string
	Workload string
	ModelE   float64 // modeled E(Instr), cycles
	SimE     float64 // simulated E(Instr), cycles
	DiffPct  float64 // (model − sim) / sim × 100
}

// Validation is one figure's full data set.
type Validation struct {
	Title string
	Rows  []ValidationRow
}

// MeanAbsDiff returns the mean |DiffPct| across the rows.
func (v Validation) MeanAbsDiff() float64 {
	if len(v.Rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range v.Rows {
		s += math.Abs(r.DiffPct)
	}
	return s / float64(len(v.Rows))
}

// MaxAbsDiff returns the largest |DiffPct|.
func (v Validation) MaxAbsDiff() float64 {
	var m float64
	for _, r := range v.Rows {
		if d := math.Abs(r.DiffPct); d > m {
			m = d
		}
	}
	return m
}

// CSV renders the validation rows as comma-separated series (one row per
// config/program point), for plotting the figures.
func (v Validation) CSV() *tabulate.Table {
	t := tabulate.New("", "config", "program", "model_einstr_cycles", "sim_einstr_cycles", "diff_pct")
	for _, r := range v.Rows {
		t.AddRow(r.Config, r.Workload,
			fmt.Sprintf("%g", r.ModelE), fmt.Sprintf("%g", r.SimE), fmt.Sprintf("%g", r.DiffPct))
	}
	return t
}

// Charts renders the validation as per-program bar charts, the visual form
// of the paper's figures: for each program, paired model/sim bars per
// configuration on a log scale.
func (v Validation) Charts() []*tabulate.Chart {
	order := []string{}
	byWl := map[string][]ValidationRow{}
	for _, r := range v.Rows {
		if _, ok := byWl[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWl[r.Workload] = append(byWl[r.Workload], r)
	}
	var out []*tabulate.Chart
	for _, wl := range order {
		c := tabulate.NewChart(fmt.Sprintf("%s — %s (model vs simulation)", v.Title, wl), "cycles")
		c.Log = true
		for _, r := range byWl[wl] {
			c.Add(r.Config+" model", r.ModelE)
			c.Add(r.Config+" sim", r.SimE)
		}
		out = append(out, c)
	}
	return out
}

// Table renders the validation as a text table.
func (v Validation) Table() *tabulate.Table {
	t := tabulate.New(v.Title, "Config", "Program", "Model E(Instr)", "Sim E(Instr)", "diff %")
	for _, r := range v.Rows {
		t.AddRow(r.Config, r.Workload,
			fmt.Sprintf("%.3f", r.ModelE),
			fmt.Sprintf("%.3f", r.SimE),
			fmt.Sprintf("%+.1f", r.DiffPct))
	}
	t.AddRow("", "", "", "mean |diff|", fmt.Sprintf("%.1f", v.MeanAbsDiff()))
	return t
}

// validate runs the model and the simulator for every (config, workload)
// pair on capacity-scaled configurations. The whole pair — trace
// generation, characterization, sharing measurement, model evaluation, and
// simulation — fans out over a bounded worker pool sized by
// runtime.NumCPU; the Suite's single-flight caches guarantee each
// (workload, nproc) trace is generated exactly once even though many pairs
// demand it concurrently. Results keep deterministic order.
func (s *Suite) validate(title string, cfgs []machine.Config) (Validation, error) {
	type job struct {
		name   string
		scaled machine.Config
		wl     workloads.Workload
	}
	var jobs []job
	for _, cfg := range cfgs {
		scaled, err := s.scaledConfig(cfg)
		if err != nil {
			return Validation{}, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
		}
		for _, w := range s.wls {
			jobs = append(jobs, job{name: cfg.Name, scaled: scaled, wl: w})
		}
	}

	rows := make([]ValidationRow, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := jobs[i]
			wlName := j.wl.Name()
			char, err := s.characterize(j.wl)
			if err != nil {
				errs[i] = err
				return
			}
			wl := ModelWorkload(char)
			tr, err := s.Trace(j.wl, j.scaled.TotalProcs())
			if err != nil {
				errs[i] = err
				return
			}
			if j.scaled.N > 1 {
				sh := s.sharing(wlName, tr, j.scaled.Procs)
				wl.RemoteShare = sh.RemoteShare
				wl.CoherenceMissRate = sh.CoherenceMissRate
			}
			res, err := core.Evaluate(j.scaled, wl, s.opts.Model)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: model %s/%s: %w", j.scaled.Name, wlName, err)
				return
			}
			sim, err := backend.Simulate(tr, j.scaled)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: sim %s/%s: %w", j.scaled.Name, wlName, err)
				return
			}
			row := ValidationRow{Config: j.name, Workload: wlName,
				ModelE: res.EInstr, SimE: sim.EInstr}
			if sim.EInstr > 0 {
				row.DiffPct = (res.EInstr - sim.EInstr) / sim.EInstr * 100
			}
			rows[i] = row
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Validation{}, err
		}
	}
	return Validation{Title: title, Rows: rows}, nil
}

// Figure2 reproduces Figure 2: modeled vs simulated E(Instr) on the SMP
// configurations C1–C6 (capacity-scaled; see package comment).
func (s *Suite) Figure2() (Validation, error) {
	return s.validate("Figure 2: modeled vs simulated E(Instr) on SMPs (C1-C6)",
		machine.SMPCatalog())
}

// Figure3 reproduces Figure 3: modeled vs simulated E(Instr) on the
// clusters of workstations C7–C11.
func (s *Suite) Figure3() (Validation, error) {
	return s.validate("Figure 3: modeled vs simulated E(Instr) on clusters of workstations (C7-C11)",
		machine.WSCatalog())
}

// Figure4 reproduces Figure 4: modeled vs simulated E(Instr) on the
// clusters of SMPs C12–C15.
func (s *Suite) Figure4() (Validation, error) {
	return s.validate("Figure 4: modeled vs simulated E(Instr) on clusters of SMPs (C12-C15)",
		machine.SMPClusterCatalog())
}

// CalibrateCoherenceAdjust searches for the remote-rate adjustment δ that
// minimizes the mean |model−sim| difference over the given cluster
// configurations — the repository's analogue of the paper's empirically
// determined 12.4% (§5.3.2). It returns the best δ and the resulting mean
// absolute difference.
func (s *Suite) CalibrateCoherenceAdjust(cfgs []machine.Config, deltas []float64) (float64, float64, error) {
	if len(deltas) == 0 {
		for d := 0.0; d <= 1.0001; d += 0.05 {
			deltas = append(deltas, d)
		}
	}
	bestDelta, bestDiff := 0.0, math.Inf(1)
	saved := s.opts.Model.CoherenceAdjust
	defer func() { s.opts.Model.CoherenceAdjust = saved }()
	for _, d := range deltas {
		s.opts.Model.CoherenceAdjust = d
		if d == 0 {
			s.opts.Model.CoherenceAdjust = -1 // 0 means "paper default"; -1 disables
		}
		v, err := s.validate("calibration", cfgs)
		if err != nil {
			return 0, 0, err
		}
		if diff := v.MeanAbsDiff(); diff < bestDiff {
			bestDiff = diff
			bestDelta = d
		}
	}
	return bestDelta, bestDiff, nil
}
