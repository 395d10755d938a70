package experiments

import (
	"fmt"
	"math"
	"sync"

	"memhier/internal/core"
	"memhier/internal/machine"
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

// validate evaluates the model for every (config, workload) pair of cfgs
// on capacity-scaled configurations against the cached simulated side of
// set, which must contain cfgs. The simulated side streams one generator
// pass per (workload, processor count) of set; the characterizations the
// model needs run beside it, so only the model rows wait for them. Rows
// keep the order of cfgs, then workloads.
func (s *Suite) validate(title string, cfgs, set []machine.Config) (Validation, error) {
	chars := make([]workloads.Characterization, len(s.wls))
	charErrs := make([]error, len(s.wls))
	var wg sync.WaitGroup
	for i, w := range s.wls {
		wg.Add(1)
		go func(i int, w workloads.Workload) {
			defer wg.Done()
			chars[i], charErrs[i] = s.characterize(w)
		}(i, w)
	}
	side, err := s.simulated(set)
	wg.Wait()
	if err != nil {
		return Validation{}, err
	}
	for _, err := range charErrs {
		if err != nil {
			return Validation{}, err
		}
	}

	var rows []ValidationRow
	for _, cfg := range cfgs {
		scaled, err := s.scaledConfig(cfg)
		if err != nil {
			return Validation{}, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
		}
		for i, w := range s.wls {
			pt, ok := side.points[pointKey(scaled, w)]
			if !ok {
				return Validation{}, fmt.Errorf("experiments: %s/%s is not in the simulated set", scaled.Name, w.Name())
			}
			wl := ModelWorkload(chars[i])
			if scaled.N > 1 {
				wl.RemoteShare = pt.share.RemoteShare
				wl.CoherenceMissRate = pt.share.CoherenceMissRate
			}
			res, err := core.Evaluate(scaled, wl, s.opts.Model)
			if err != nil {
				return Validation{}, fmt.Errorf("experiments: model %s/%s: %w", scaled.Name, w.Name(), err)
			}
			row := ValidationRow{Config: cfg.Name, Workload: w.Name(),
				ModelE: res.EInstr, SimE: pt.simE}
			if pt.simE > 0 {
				row.DiffPct = (res.EInstr - pt.simE) / pt.simE * 100
			}
			rows = append(rows, row)
		}
	}
	return Validation{Title: title, Rows: rows}, nil
}

// validationFigures lists Figures 2–4 by figure number: title and
// configurations.
var validationFigures = map[int]struct {
	title string
	cfgs  func() []machine.Config
}{
	2: {"Figure 2: modeled vs simulated E(Instr) on SMPs (C1-C6)", machine.SMPCatalog},
	3: {"Figure 3: modeled vs simulated E(Instr) on clusters of workstations (C7-C11)", machine.WSCatalog},
	4: {"Figure 4: modeled vs simulated E(Instr) on clusters of SMPs (C12-C15)", machine.SMPClusterCatalog},
}

// figure validates Figure n's configurations against the simulated side of
// set, or of the figure's own configurations when set is nil. The full
// reproduction passes C1–C15 for all three figures, so one streamed pass
// per (workload, processor count) serves them all.
func (s *Suite) figure(n int, set []machine.Config) (Validation, error) {
	f := validationFigures[n]
	cfgs := f.cfgs()
	if set == nil {
		set = cfgs
	}
	return s.validate(f.title, cfgs, set)
}

// Figure2 reproduces Figure 2: modeled vs simulated E(Instr) on the SMP
// configurations C1–C6 (capacity-scaled; see package comment). On its own
// it simulates only C1–C6.
func (s *Suite) Figure2() (Validation, error) { return s.figure(2, nil) }

// Figure3 reproduces Figure 3: modeled vs simulated E(Instr) on the
// clusters of workstations C7–C11.
func (s *Suite) Figure3() (Validation, error) { return s.figure(3, nil) }

// Figure4 reproduces Figure 4: modeled vs simulated E(Instr) on the
// clusters of SMPs C12–C15.
func (s *Suite) Figure4() (Validation, error) { return s.figure(4, nil) }

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
		v, err := s.validate("calibration", cfgs, cfgs)
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
