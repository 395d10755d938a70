package experiments

import (
	"fmt"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/tabulate"
	"memhier/internal/workloads"
)

// SizeScalingRow is one problem size of the scaling experiment.
type SizeScalingRow struct {
	Points    int
	Beta      float64 // fitted at item granularity (paper's unit)
	ModelE    float64 // line-granularity model, cycles
	SimE      float64 // simulated, cycles
	DiffPct   float64
	Footprint int // distinct items
}

// CaseSizeScaling quantifies the paper's observation that "the β value
// continues to increase as the size of the workload data set increases"
// (§5.2, for TPC-C), on the FFT kernel: the transform size grows, the
// fitted β grows with it, and the model keeps tracking the simulator on a
// fixed (capacity-scaled) platform.
func CaseSizeScaling(opts core.Options) ([]SizeScalingRow, *tabulate.Table, error) {
	cfg := machine.Config{Name: "SMP2/16", Kind: machine.SMP, N: 1, Procs: 2,
		CacheBytes: 16 << 10, MemoryBytes: 4 << 20, Net: machine.NetNone, ClockMHz: 200}
	t := tabulate.New("Extension: problem-size scaling (FFT on a capacity-scaled 2-way SMP)",
		"Points", "fitted beta (items)", "footprint", "Model E", "Sim E", "diff %")
	var rows []SizeScalingRow
	for _, points := range []int{1 << 8, 1 << 12, 1 << 14} {
		w := workloads.NewFFT(points)
		// Paper-unit characterization (items) for the β-growth claim, and
		// the line-granularity one that feeds the model, as in the
		// validation figures.
		chars, err := workloads.CharacterizeLines(w, suiteLineSizes, workloads.CharacterizeOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: size scaling %d: %w", points, err)
		}
		itemChar, lineChar := chars[0], chars[1]
		wl := ModelWorkload(lineChar)
		res, err := core.Evaluate(cfg, wl, opts)
		if err != nil {
			return nil, nil, err
		}
		sim, err := StreamSimulate(w, cfg)
		if err != nil {
			return nil, nil, err
		}
		row := SizeScalingRow{
			Points:    points,
			Beta:      itemChar.Params.Beta,
			ModelE:    res.EInstr,
			SimE:      sim.EInstr,
			Footprint: itemChar.Distinct,
		}
		if sim.EInstr > 0 {
			row.DiffPct = (res.EInstr - sim.EInstr) / sim.EInstr * 100
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprint(points),
			fmt.Sprintf("%.2f", row.Beta),
			fmt.Sprint(row.Footprint),
			fmt.Sprintf("%.3f", row.ModelE),
			fmt.Sprintf("%.3f", row.SimE),
			fmt.Sprintf("%+.1f", row.DiffPct))
	}
	return rows, t, nil
}
