package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"memhier/internal/client"
	"memhier/internal/server"
)

// runSweep drives the /v1/sweep streaming API: a whole parameter grid —
// configurations × workloads, plus an eq. 6 budget optimization per
// workload — in one request. The default invocation reproduces the
// paper's full Fig. 2–4 case-study grid (C1–C15 × the three validated
// kernels × the budget axis) as a single sweep.
func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sweep", stderr)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "chc-serve base URL")
		configs   = fs.String("configs", "C1-C15", "configurations: comma list of names (incl. modern-2s-server, cloud-vm-8) and Cx-Cy ranges (empty: budget axis only)")
		workloads = fs.String("workloads", "fft,lu,radix", "comma-separated workloads")
		budgets   = fs.String("budgets", "2000,3000,5000,8000,12000,16000,20000,30000,40000,60000",
			"budget axis: comma list or lo:hi:step (empty: no budget points)")
		delta   = fs.Float64("delta", 0, "coherence rate adjustment applied to every point")
		brute   = fs.Bool("brute", false, "force brute-force budget enumeration (verification aid)")
		ndjson  = fs.Bool("ndjson", false, "emit the raw NDJSON lines instead of the table")
		timeout = fs.Duration("timeout", 2*time.Minute, "overall deadline for the sweep")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	cfgSpecs, err := parseConfigs(*configs)
	if err != nil {
		return err
	}
	budgetAxis, err := parseBudgets(*budgets)
	if err != nil {
		return err
	}
	req := server.SweepRequest{
		Configs:   cfgSpecs,
		Workloads: parseWorkloads(*workloads),
		Budgets:   budgetAxis,
		Delta:     *delta,
		Brute:     *brute,
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr, client.Options{})

	enc := json.NewEncoder(stdout)
	emit := func(line server.SweepLine) error {
		if *ndjson {
			return enc.Encode(line)
		}
		if line.Error != nil {
			fmt.Fprintf(stdout, "%4d  %-6s %-28s ERROR %d %s: %s\n",
				line.Index, line.Kind, line.Config+"/"+line.Workload, line.Status, line.Error.Code, line.Error.Error)
			return nil
		}
		switch line.Kind {
		case "predict":
			var resp server.PredictResponse
			if err := json.Unmarshal(line.Response, &resp); err != nil {
				return fmt.Errorf("point %d: %w", line.Index, err)
			}
			fmt.Fprintf(stdout, "%4d  %-6s %-4s %-8s E(Instr)=%8.3f cycles  %.4g s  [%s]\n",
				line.Index, line.Kind, line.Config, line.Workload,
				resp.Result.EInstr, resp.Result.Seconds, line.Cache)
		case "budget":
			var resp server.BudgetSweepResponse
			if err := json.Unmarshal(line.Response, &resp); err != nil {
				return fmt.Errorf("point %d: %w", line.Index, err)
			}
			mode := "pruned"
			if resp.Brute {
				mode = "brute"
			}
			fmt.Fprintf(stdout, "%4d  budget %-8s (%s: %d evals of %d configs)\n",
				line.Index, resp.Workload, mode, resp.Stats.Evaluated, resp.Stats.Configs)
			for _, p := range resp.Points {
				fmt.Fprintf(stdout, "      $%-7.0f -> %-45s $%-6.0f E=%.3f\n",
					p.Budget, p.Best.Config.Name, p.Best.Cost, p.Best.EInstr)
			}
		}
		return nil
	}

	res, err := c.Sweep(ctx, req, emit)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr,
		"chc sweep: %d points in %d segment(s): %d hits, %d misses, %d dedup, %d errors\n",
		res.Received, res.Segments, res.CacheHits, res.CacheMisses, res.DedupWaits, res.Errors)
	if res.Errors > 0 {
		return exitStatus(2)
	}
	return nil
}

// parseConfigs expands "C1-C15,C7" style lists: comma-separated names,
// each either a catalog name or a Cx-Cy range.
func parseConfigs(s string) ([]server.ConfigSpec, error) {
	var specs []server.ConfigSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			l, errL := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(lo), "C"))
			h, errH := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(hi), "C"))
			if errL == nil && errH == nil {
				if l > h {
					return nil, fmt.Errorf("config range %q runs backwards", part)
				}
				for i := l; i <= h; i++ {
					specs = append(specs, server.ConfigSpec{Name: "C" + strconv.Itoa(i)})
				}
				continue
			}
		}
		specs = append(specs, server.ConfigSpec{Name: part})
	}
	return specs, nil
}

func parseWorkloads(s string) []server.WorkloadSpec {
	var specs []server.WorkloadSpec
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			specs = append(specs, server.WorkloadSpec{Name: part})
		}
	}
	return specs
}

// parseBudgets accepts either a comma list ("2000,5000") or a
// lo:hi:step sweep ("2000:20000:2000", inclusive endpoints).
func parseBudgets(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("budget sweep %q: want lo:hi:step", s)
		}
		var v [3]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("budget sweep %q: %w", s, err)
			}
			v[i] = f
		}
		lo, hi, step := v[0], v[1], v[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("budget sweep %q: need lo <= hi and step > 0", s)
		}
		var out []float64
		for b := lo; b <= hi; b += step {
			out = append(out, b)
		}
		return out, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			f, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, fmt.Errorf("budget %q: %w", part, err)
			}
			out = append(out, f)
		}
	}
	return out, nil
}
