// Package server implements chc-serve: a long-running HTTP JSON service
// exposing the repository's analytical machinery — the Du–Zhang E(Instr)
// model (/v1/predict), the budget optimizer (/v1/optimize), the upgrade
// advisor (/v1/advise), locality curve fitting (/v1/fit), and the
// instrumented-kernel simulator (/v1/validate) — plus the operational
// endpoints /healthz, /readyz, and /metrics.
//
// The service layer is built for load, not as a thin wrapper: requests are
// canonicalized into cache keys feeding a sharded LRU result cache with
// single-flight deduplication (identical concurrent predictions are
// computed once), simulation-backed requests run on a bounded worker pool
// with a configurable queue depth and 429 + Retry-After load shedding, and
// every request carries a context deadline so a stuck computation cannot
// pin a connection forever.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/workloads"
)

// ConfigSpec selects the platform of a request: either a catalog
// configuration C1–C15 by name, or a custom platform description in the
// `chc model` vocabulary.
type ConfigSpec struct {
	// Name is a catalog configuration (C1–C15); when set, the remaining
	// fields are ignored.
	Name string `json:"name,omitempty"`
	// Kind is the custom platform class: "smp", "ws", or "csmp".
	Kind string `json:"kind,omitempty"`
	// Machines is N (default 1); Procs is n (default 1).
	Machines int `json:"machines,omitempty"`
	Procs    int `json:"procs,omitempty"`
	// CacheBytes and MemoryBytes are the per-processor cache and
	// per-machine memory capacities (defaults: 256 KB and 64 MB).
	CacheBytes  int64 `json:"cache_bytes,omitempty"`
	MemoryBytes int64 `json:"memory_bytes,omitempty"`
	// Levels is the per-processor cache hierarchy, innermost first (up to
	// three levels). A 1-element list is the same platform as the
	// equivalent cache_bytes — both spellings share one cache key.
	Levels []machine.CacheLevel `json:"levels,omitempty"`
	// Net is the cluster network: "none", "10", "100", or "atm".
	Net string `json:"net,omitempty"`
	// ClockMHz is the processor clock (default the 200 MHz reference).
	ClockMHz float64 `json:"clock_mhz,omitempty"`
	// Divisor optionally divides cache/memory capacities (validation runs).
	Divisor int `json:"divisor,omitempty"`
}

// Resolve returns the machine configuration the spec describes.
func (c ConfigSpec) Resolve() (machine.Config, error) {
	var cfg machine.Config
	if c.Name != "" {
		var err error
		if cfg, err = machine.ByName(c.Name); err != nil {
			return machine.Config{}, err
		}
	} else {
		if c.Kind == "" {
			return machine.Config{}, errors.New("server: config: need a catalog name or a platform kind")
		}
		kind, err := machine.ParsePlatformKind(c.Kind)
		if err != nil {
			return machine.Config{}, err
		}
		net, err := machine.ParseNetwork(c.Net)
		if err != nil {
			return machine.Config{}, err
		}
		cfg = machine.Config{
			Name: "custom", Kind: kind,
			N: c.Machines, Procs: c.Procs,
			CacheBytes: c.CacheBytes, MemoryBytes: c.MemoryBytes,
			Levels: c.Levels,
			Net:    net, ClockMHz: c.ClockMHz,
		}
		if cfg.N == 0 {
			cfg.N = 1
		}
		if cfg.Procs == 0 {
			cfg.Procs = 1
		}
		if cfg.CacheBytes == 0 && len(cfg.Levels) == 0 {
			cfg.CacheBytes = 256 << 10
		}
		if cfg.MemoryBytes == 0 {
			cfg.MemoryBytes = 64 << 20
		}
		if cfg.ClockMHz == 0 {
			cfg.ClockMHz = machine.ReferenceClockMHz
		}
	}
	// Validate before scaling: Scaled only divides capacities (clamped to
	// >= 1), so it cannot repair an invalid platform — and skipping
	// validation here would let specs like {machines: -55, divisor: 16}
	// resolve into configs their own canonical form rejects.
	if err := cfg.Validate(); err != nil {
		return machine.Config{}, err
	}
	// Canonicalize after validation (validation still sees a cache_bytes /
	// levels[0] disagreement): a 1-element zero-latency levels list folds
	// back to the legacy spelling, so both forms resolve to one config —
	// and through configKey, one cache entry.
	cfg = cfg.Canonical()
	if c.Divisor > 1 {
		return cfg.Scaled(c.Divisor)
	}
	return cfg, nil
}

// WorkloadSpec selects the workload of a request: a named paper workload
// (Table 2 parameters; names are case-insensitive, kernel aliases accepted),
// the same name with measured=true for an on-the-fly characterization of
// the instrumented Go kernel, or a full inline workload description in the
// chc model -workload-file schema.
type WorkloadSpec struct {
	Name     string         `json:"name,omitempty"`
	Measured bool           `json:"measured,omitempty"`
	Inline   *core.Workload `json:"workload,omitempty"`
}

// Validate performs the cheap structural checks that must precede cache
// keying (full resolution of a measured workload is expensive and happens
// inside the single-flight computation).
func (w WorkloadSpec) Validate() error {
	if w.Inline != nil {
		return w.Inline.Validate()
	}
	if w.Name == "" {
		return errors.New("server: workload: need a name or an inline workload description")
	}
	return nil
}

// PredictRequest asks for one model evaluation (`chc model` as an
// API call).
type PredictRequest struct {
	Config   ConfigSpec   `json:"config"`
	Workload WorkloadSpec `json:"workload"`
	// Delta is the coherence rate adjustment (0 means the paper's 0.124;
	// negative disables it).
	Delta float64 `json:"delta,omitempty"`
}

// PredictResponse carries the solved model plus the exact text the
// chc model CLI would print (byte-identical by construction: both sides
// call core.RenderResult).
type PredictResponse struct {
	Result core.Result `json:"result"`
	// Workload echoes the resolved workload (useful for measured kernels,
	// whose parameters the client did not supply).
	Workload core.Workload `json:"workload"`
	Text     string        `json:"text"`
}

// OptimizeRequest asks for the eq. 6 budget optimization.
type OptimizeRequest struct {
	Budget   float64      `json:"budget"`
	Workload WorkloadSpec `json:"workload"`
	// Top bounds the returned ranking (default 5, max 50).
	Top   int     `json:"top,omitempty"`
	Delta float64 `json:"delta,omitempty"`
}

// OptimizeResponse reports the winner, the ranking head, and the §6
// principle classification.
type OptimizeResponse struct {
	Workload  string        `json:"workload"`
	Principle string        `json:"principle"`
	Feasible  int           `json:"feasible"`
	Best      cost.Scored   `json:"best"`
	Top       []cost.Scored `json:"top"`
}

// AdviseRequest asks for the §6 upgrade problem: the best configuration
// reachable from an existing cluster with a budget increase.
type AdviseRequest struct {
	Config   ConfigSpec   `json:"config"`
	Budget   float64      `json:"budget"`
	Workload WorkloadSpec `json:"workload"`
	Delta    float64      `json:"delta,omitempty"`
}

// AdviseResponse reports the upgrade plan plus the paper's qualitative
// guidance (capacity first vs network first) and principle class.
type AdviseResponse struct {
	Workload  string           `json:"workload"`
	Principle string           `json:"principle"`
	Plan      cost.UpgradePlan `json:"plan"`
	Advice    string           `json:"advice"`
}

// FitRequest asks for a locality-model fit to empirical CDF points:
// ps[i] ≈ P(xs[i]).
type FitRequest struct {
	Xs []float64 `json:"xs"`
	Ps []float64 `json:"ps"`
	// Weights optionally weights the points (e.g. reference counts).
	Weights []float64 `json:"weights,omitempty"`
	// Gamma is the memory-reference fraction to report back; the curve fit
	// itself cannot produce it.
	Gamma float64 `json:"gamma,omitempty"`
}

// FitResponse reports the fitted parameters and fit quality.
type FitResponse struct {
	Params locality.Params   `json:"params"`
	Stats  locality.FitStats `json:"stats"`
}

// ValidateRequest asks for one execution-driven simulation of an
// instrumented kernel — the expensive, worker-pool-backed endpoint.
type ValidateRequest struct {
	Config ConfigSpec `json:"config"`
	// Workload is a kernel name: fft, lu, radix, edge, tpcc.
	Workload string `json:"workload"`
	// Divisor divides the platform's capacities, matching the scaled-down
	// problem sizes (default 16, the validation figures' setting).
	Divisor int `json:"divisor,omitempty"`
}

// ValidateResponse summarizes the simulated execution.
type ValidateResponse struct {
	Platform       string             `json:"platform"`
	Workload       string             `json:"workload"`
	EInstr         float64            `json:"e_instr_cycles"`
	Seconds        float64            `json:"seconds"`
	AvgT           float64            `json:"avg_t_cycles"`
	WallCycles     float64            `json:"wall_cycles"`
	Instructions   uint64             `json:"instructions"`
	MemoryRefs     uint64             `json:"memory_refs"`
	Barriers       uint64             `json:"barriers"`
	ClassShare     map[string]float64 `json:"class_share"`
	CoherenceShare float64            `json:"coherence_share"`
	NetUtilization float64            `json:"net_utilization"`
}

// ErrorResponse is the JSON error body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class (bad_request, overloaded,
	// saturated, infeasible, deadline, transient, panic, draining,
	// not_found, method_not_allowed, internal). Clients branch on this,
	// not on the message text.
	Code string `json:"code,omitempty"`
	// RequestID echoes the X-Request-ID header so error reports are
	// self-contained.
	RequestID string `json:"request_id,omitempty"`
	// Rho is the offending utilization when the model refused a
	// near-saturated or saturated operating point (queueing.SaturationError).
	Rho float64 `json:"rho,omitempty"`
	// RetryAfterSeconds accompanies 429 load-shedding responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// canonicalKey builds the cache key of a request: the endpoint name plus
// the canonical JSON encoding of its resolved, defaulted form. Two
// requests that differ only in spelling (config case, workload aliases,
// omitted defaults) canonicalize to the same key.
func canonicalKey(endpoint string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("server: canonicalizing %s request: %w", endpoint, err)
	}
	return endpoint + "\x00" + string(b), nil
}

// canonicalWorkload normalizes a workload spec for keying without paying
// for resolution: inline workloads key on their full encoding, named ones
// on the canonical paper name (or lower-cased kernel name when measured).
func canonicalWorkload(w WorkloadSpec) (WorkloadSpec, error) {
	if err := w.Validate(); err != nil {
		return WorkloadSpec{}, err
	}
	if w.Inline != nil {
		return WorkloadSpec{Inline: w.Inline}, nil
	}
	if w.Measured {
		// Kernel existence is checked cheaply; characterization is deferred.
		name, err := canonicalKernelName(w.Name)
		if err != nil {
			return WorkloadSpec{}, err
		}
		return WorkloadSpec{Name: name, Measured: true}, nil
	}
	wl, err := core.PaperWorkloadByName(w.Name)
	if err != nil {
		return WorkloadSpec{}, err
	}
	return WorkloadSpec{Name: wl.Name}, nil
}

// canonicalKernelName lower-cases and validates an instrumented-kernel
// name without constructing a trace or characterization.
func canonicalKernelName(name string) (string, error) {
	k, err := workloads.ByName(name, workloads.ScaleSmall)
	if err != nil {
		return "", err
	}
	return strings.ToLower(k.Name()), nil
}
