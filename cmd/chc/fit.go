package main

import (
	"fmt"
	"io"
	"os"

	"memhier/internal/workloads"
)

// runFit characterizes an instrumented workload the way the paper's
// trace-analysis tool does: it collects the single-processor reference
// stream, computes the stack-distance distribution, and fits the locality
// model P(x) = 1 − (x/β+1)^−(α−1), reporting α, β, γ and the auxiliary
// measurements (HitMass, conflict factor κ, footprint).
func runFit(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("fit", stderr)
	var (
		workload   = fs.String("workload", "fft", "workload: fft, lu, radix, edge, tpcc")
		line       = fs.Int("line", 1, "stack-distance granule: 1 = data item, 64 = cache line")
		paperScale = fs.Bool("paper-scale", false, "use the paper's full problem sizes")
		save       = fs.String("save", "", "also write the raw 1-processor trace to this file")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	k, err := workloads.ByName(*workload, scale(*paperScale))
	if err != nil {
		return err
	}
	c, err := workloads.Characterize(k, workloads.CharacterizeOptions{LineSize: *line})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload:   %s — %s\n", c.Workload, c.Problem)
	fmt.Fprintf(stdout, "granule:    %d byte(s)\n", c.LineSize)
	fmt.Fprintf(stdout, "alpha       = %.4f\n", c.Params.Alpha)
	fmt.Fprintf(stdout, "beta        = %.2f granules\n", c.Params.Beta)
	fmt.Fprintf(stdout, "gamma       = %.4f\n", c.Params.Gamma)
	fmt.Fprintf(stdout, "hit mass    = %.4f (stack distance < 2)\n", c.HitMass)
	fmt.Fprintf(stdout, "kappa       = %.2f (2-way conflict inflation)\n", c.Conflict)
	fmt.Fprintf(stdout, "footprint   = %d granules\n", c.Distinct)
	fmt.Fprintf(stdout, "references  = %d\n", c.Refs)
	fmt.Fprintf(stdout, "fit quality: RMSE %.4f, R^2 %.4f over %d points\n", c.Fit.RMSE, c.Fit.R2, c.Fit.Points)

	if *save == "" {
		return nil
	}
	tr, err := workloads.GenerateTrace(k, 1)
	if err != nil {
		return err
	}
	f, err := os.Create(*save)
	if err != nil {
		return err
	}
	_, err = tr.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace saved to %s\n", *save)
	return nil
}
