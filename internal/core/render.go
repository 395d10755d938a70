package core

import (
	"fmt"
	"io"
)

// RenderResult writes the human-readable evaluation report: the platform
// and workload lines, T and E(Instr), and the per-level breakdown. It is
// the single source of this format — `chc model` prints it and the
// chc-serve /v1/predict endpoint embeds it, so the two are byte-identical
// for the same configuration and workload.
func RenderResult(w io.Writer, wl Workload, res Result) {
	cfg := res.Config
	// CacheDesc keeps the historical "%dKB" spelling for one-level configs
	// (the rendered text is part of the bit-identity contract) and lists
	// every level ("32KB+1MB+4MB") for multi-level hierarchies.
	fmt.Fprintf(w, "platform:  %s (%s, n=%d, N=%d, cache %s, mem %dMB, net %v)\n",
		cfg.Name, cfg.Kind, cfg.Procs, cfg.N, cfg.CacheDesc(), cfg.MemoryBytes>>20, cfg.Net)
	fmt.Fprintf(w, "workload:  %s (alpha=%.2f beta=%.2f gamma=%.2f)\n",
		wl.Name, wl.Locality.Alpha, wl.Locality.Beta, wl.Locality.Gamma)
	fmt.Fprintf(w, "T        = %.3f cycles/reference (barrier part %.3f)\n", res.T, res.Barrier)
	fmt.Fprintf(w, "E(Instr) = %.4f cycles = %.4g seconds at %g MHz\n", res.EInstr, res.Seconds, cfg.ClockMHz)
	fmt.Fprintln(w, "levels:")
	for _, lv := range res.Levels {
		fmt.Fprintf(w, "  %-14s miss=%.4f service=%.0f contended=%.1f utilization=%.3f cycles/ref=%.3f\n",
			lv.Name, lv.MissFraction, lv.Uncontended, lv.Contended, lv.Utilization, lv.CyclesPerRef)
	}
}
