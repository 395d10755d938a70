package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/server"
	"memhier/internal/workloads"
)

// runModel evaluates the analytical model for one platform configuration
// and one workload, printing T, E(Instr) and the per-level breakdown.
func runModel(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("model", stderr)
	var (
		config       = fs.String("config", "", "catalog configuration C1-C15 or a modern preset (modern-2s-server, cloud-vm-8)")
		kind         = fs.String("kind", "", "custom platform: smp, ws, or csmp")
		nMach        = fs.Int("N", 1, "machines in the cluster")
		nProc        = fs.Int("n", 1, "processors per machine")
		cacheStr     = fs.String("cache", "256KB", "per-processor cache size")
		levelsStr    = fs.String("levels", "", "cache hierarchy, innermost first, size[@cycles] per level (e.g. 32KB@4,1MB@14,4MB@44; overrides -cache)")
		memStr       = fs.String("mem", "64MB", "per-machine memory size")
		netStr       = fs.String("net", "none", "cluster network: 10, 100, atm")
		workload     = fs.String("workload", "FFT", "workload: FFT, LU, Radix, EDGE, TPC-C (paper) or fft, lu, radix, edge, tpcc (measured)")
		workloadFile = fs.String("workload-file", "", workloadFileUsage)
		measured     = fs.Bool("measured", false, "characterize the instrumented Go kernel instead of using paper parameters")
		delta        = fs.Float64("delta", 0, deltaUsage)
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	// A custom platform resolves exactly as a /v1/predict config spec does.
	spec := server.ConfigSpec{Name: *config}
	if *config == "" {
		cache, err := parseSize(*cacheStr)
		if err != nil {
			return err
		}
		mem, err := parseSize(*memStr)
		if err != nil {
			return err
		}
		if _, err := machine.ParsePlatformKind(*kind); err != nil {
			return errors.New("need -config or -kind (smp, ws, csmp)")
		}
		spec = server.ConfigSpec{Kind: *kind, Machines: *nMach, Procs: *nProc,
			CacheBytes: cache, MemoryBytes: mem, Net: *netStr}
		if *levelsStr != "" {
			// The hierarchy's first level is the cache; a CacheBytes
			// beside it would have to agree with levels[0].
			if spec.Levels, err = parseLevels(*levelsStr); err != nil {
				return err
			}
			spec.CacheBytes = 0
		}
	}
	cfg, err := spec.Resolve()
	if err != nil {
		return err
	}

	wl, err := loadWorkload(*workloadFile, *workload, *measured, func(c workloads.Characterization) {
		fmt.Fprintf(stdout, "measured characterization: alpha=%.3f beta=%.2f gamma=%.3f kappa=%.2f footprint=%d lines\n",
			c.Params.Alpha, c.Params.Beta, c.Params.Gamma, c.Conflict, c.Distinct)
	})
	if err != nil {
		return err
	}
	res, err := core.Evaluate(cfg, wl, core.Options{CoherenceAdjust: *delta})
	if err != nil {
		return err
	}
	core.RenderResult(stdout, wl, res)
	return nil
}

// parseLevels accepts a comma-separated cache hierarchy, innermost level
// first, each level "size" or "size@cycles" ("32KB@4,1MB@14,4MB@44").
func parseLevels(s string) ([]machine.CacheLevel, error) {
	var out []machine.CacheLevel
	for _, part := range strings.Split(s, ",") {
		spec, latStr, hasLat := strings.Cut(strings.TrimSpace(part), "@")
		bytes, err := parseSize(spec)
		if err != nil {
			return nil, err
		}
		lv := machine.CacheLevel{Bytes: bytes}
		if hasLat {
			lv.LatencyCycles, err = strconv.ParseFloat(strings.TrimSpace(latStr), 64)
			if err != nil {
				return nil, fmt.Errorf("bad level latency %q", part)
			}
		}
		out = append(out, lv)
	}
	return out, nil
}

// parseSize accepts "256KB", "64MB", or plain bytes.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
