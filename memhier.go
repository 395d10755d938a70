// Package memhier reproduces Du & Zhang, "The Impact of Memory Hierarchies
// on Cluster Computing" (IPPS 1999): an analytical model that predicts the
// average execution time per instruction of an SPMD application on a single
// SMP, a cluster of workstations, or a cluster of SMPs from the
// application's locality characterization (stack-distance parameters α, β
// and memory-reference fraction γ) and the platform's memory hierarchy —
// plus everything needed to validate and apply it:
//
//   - instrumented SPLASH-2-style kernels (FFT, LU, Radix, EDGE) and a
//     synthetic TPC-C that generate per-processor reference traces;
//   - stack-distance analysis and nonlinear least-squares fitting of the
//     paper's P(x) = 1 − (x/β+1)^−(α−1) locality curve;
//   - five execution-driven memory-hierarchy simulators (snooping SMP,
//     directory clusters over Ethernet buses or an ATM switch, and the
//     hybrid cluster of SMPs);
//   - the cost model and enumeration optimizer of the paper's §6 case
//     studies, with an upgrade advisor; and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// This package is a stable facade over the internal implementation
// packages; the cmd/ tools and examples/ programs show typical use.
package memhier

import (
	"io"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/experiments"
	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// Model types: the paper's analytical model (internal/core).
type (
	// Workload is the model's application description: locality parameters
	// plus the measured sharing and conflict corrections.
	Workload = core.Workload
	// ModelOptions selects model variants (ablations, calibration).
	ModelOptions = core.Options
	// ModelResult is a solved evaluation: T, E(Instr), per-level breakdown.
	ModelResult = core.Result
	// LocalityParams are the paper's (α, β, γ).
	LocalityParams = locality.Params
)

// Platform types (internal/machine).
type (
	// Config describes one platform configuration.
	Config = machine.Config
	// CacheLevel is one level of a per-processor cache hierarchy.
	CacheLevel = machine.CacheLevel
	// PlatformKind is SMP, ClusterWS, or ClusterSMP.
	PlatformKind = machine.PlatformKind
	// NetworkKind is the cluster interconnect family.
	NetworkKind = machine.NetworkKind
	// Latencies is the §5.1 latency table.
	Latencies = machine.Latencies
)

// Platform enumerators.
const (
	SMP        = machine.SMP
	ClusterWS  = machine.ClusterWS
	ClusterSMP = machine.ClusterSMP

	NetNone      = machine.NetNone
	NetBus10     = machine.NetBus10
	NetBus100    = machine.NetBus100
	NetSwitch155 = machine.NetSwitch155
)

// Workload and simulation types.
type (
	// Kernel is an instrumented parallel application.
	Kernel = workloads.Workload
	// Characterization is a fitted (α, β, γ, κ, …) workload summary.
	Characterization = workloads.Characterization
	// Trace is a per-processor reference stream collection.
	Trace = trace.Trace
	// SimResult summarizes one simulated execution.
	SimResult = backend.RunResult
)

// Cost types (internal/cost).
type (
	// Catalog prices system components.
	Catalog = cost.Catalog
	// Scored is a priced, modeled configuration.
	Scored = cost.Scored
	// UpgradePlan is the outcome of the upgrade optimization.
	UpgradePlan = cost.UpgradePlan
	// Principle is a §6 workload-class recommendation.
	Principle = cost.Principle
)

// Evaluate solves the analytical model for one configuration and workload
// (eq. 4/7/11 of the paper).
func Evaluate(cfg Config, wl Workload, opts ModelOptions) (ModelResult, error) {
	return core.Evaluate(cfg, wl, opts)
}

// PaperWorkloads returns the paper's Table 2 characterizations.
func PaperWorkloads() []Workload { return core.PaperWorkloads() }

// PaperTPCC returns the §5.2 TPC-C characterization.
func PaperTPCC() Workload { return core.PaperTPCC() }

// PaperWorkload looks up a Table 2 workload by name, case-insensitively.
func PaperWorkload(name string) (Workload, bool) { return core.PaperWorkload(name) }

// Catalogs of the paper's evaluated configurations (Tables 3–5).
func SMPCatalog() []Config        { return machine.SMPCatalog() }
func WSCatalog() []Config         { return machine.WSCatalog() }
func SMPClusterCatalog() []Config { return machine.SMPClusterCatalog() }

// ModernCatalog returns the multi-level modern presets (modern-2s-server,
// cloud-vm-8), resolvable through ConfigByName like the paper's C1–C15.
func ModernCatalog() []Config { return machine.ModernCatalog() }

// ConfigByName returns a C1–C15 catalog configuration or a modern preset.
func ConfigByName(name string) (Config, error) { return machine.ByName(name) }

// Kernels returns the paper's application suite at small (fast) or paper
// problem scale.
func Kernels(paperScale bool) []Kernel {
	if paperScale {
		return workloads.Suite(workloads.ScalePaper)
	}
	return workloads.Suite(workloads.ScaleSmall)
}

// KernelByName returns one application ("fft", "lu", "radix", "edge",
// "tpcc").
func KernelByName(name string, paperScale bool) (Kernel, error) {
	s := workloads.ScaleSmall
	if paperScale {
		s = workloads.ScalePaper
	}
	return workloads.ByName(name, s)
}

// Kernel constructors with explicit problem sizes.
func NewFFT(points int) Kernel                { return workloads.NewFFT(points) }
func NewLU(n, block int) Kernel               { return workloads.NewLU(n, block) }
func NewRadix(keys, radix int) Kernel         { return workloads.NewRadix(keys, radix) }
func NewEdge(width, height, iters int) Kernel { return workloads.NewEdge(width, height, iters) }
func NewTPCC(warehouses, transactions int) Kernel {
	return workloads.NewTPCC(warehouses, transactions)
}

// GenerateTrace runs a kernel over nproc logical processors and returns its
// reference trace.
func GenerateTrace(k Kernel, nproc int) (*Trace, error) {
	return workloads.GenerateTrace(k, nproc)
}

// Characterize measures a kernel's locality parameters the way the paper
// does (single-processor stack-distance analysis and least-squares fit), at
// data-item granularity — the paper's "unique data items".
func Characterize(k Kernel) (Characterization, error) {
	return workloads.Characterize(k, workloads.CharacterizeOptions{})
}

// CharacterizeLines measures locality at 64-byte cache-line granularity —
// the unit the simulators operate in, and therefore the right model input
// for model-vs-simulation comparisons.
func CharacterizeLines(k Kernel) (Characterization, error) {
	return workloads.Characterize(k, workloads.CharacterizeOptions{LineSize: 64})
}

// ModelWorkload converts a characterization into a model workload.
func ModelWorkload(c Characterization) Workload { return experiments.ModelWorkload(c) }

// Simulate drives the configuration's execution-driven simulator with the
// trace (the paper's validation methodology).
func Simulate(tr *Trace, cfg Config) (SimResult, error) { return backend.Simulate(tr, cfg) }

// StreamSimulate drives the simulator directly from a kernel without
// materializing the trace (constant memory; paper-scale problems).
func StreamSimulate(k Kernel, cfg Config) (SimResult, error) {
	sys, err := backend.NewSystem(cfg)
	if err != nil {
		return SimResult{}, err
	}
	var opts []backend.StreamOption
	if h, ok := k.(workloads.EventHinter); ok {
		opts = append(opts, backend.WithEventHint(h.EventHint(cfg.TotalProcs())))
	}
	return backend.StreamRun(sys, cfg.TotalProcs(), func(sink trace.Sink) error {
		return k.Run(cfg.TotalProcs(), sink)
	}, opts...)
}

// DefaultCatalog returns the 1999-era component prices of the case studies.
func DefaultCatalog() Catalog { return cost.DefaultCatalog() }

// Optimize finds the configuration minimizing modeled E(Instr) under the
// budget (the paper's eq. 6), returning the winner and the feasible
// ranking.
func Optimize(budget float64, wl Workload, opts ModelOptions) (Scored, []Scored, error) {
	return cost.Optimize(budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
}

// Upgrade finds the best configuration reachable from an existing cluster
// with the given budget increase (the paper's second optimization problem).
func Upgrade(existing Config, budgetIncrease float64, wl Workload, opts ModelOptions) (UpgradePlan, error) {
	return cost.Upgrade(existing, budgetIncrease, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
}

// Recommend classifies a workload into the paper's §6 platform principles.
func Recommend(wl Workload) Principle { return cost.Recommend(wl) }

// Scalability sweeps a cluster template's machine count and reports modeled
// speedup and efficiency per point.
func Scalability(template Config, wl Workload, opts ModelOptions, maxN int) ([]core.ScalabilityPoint, error) {
	return core.Scalability(template, wl, opts, maxN)
}

// Sensitivities estimates the elasticity of E(Instr) to cache, memory, and
// network latency — the quantitative form of the paper's upgrade rule.
func Sensitivities(cfg Config, wl Workload, opts ModelOptions) ([]core.Sensitivity, error) {
	return core.Sensitivities(cfg, wl, opts)
}

// EvaluateMix models a platform running a weighted mix of applications.
func EvaluateMix(cfg Config, mix []core.MixComponent, opts ModelOptions) (float64, error) {
	return core.EvaluateMix(cfg, mix, opts)
}

// MeasureSharing analyzes a multiprocessor trace for cross-machine sharing
// (RemoteShare) and invalidation-induced coherence misses — the model's
// cluster communication inputs.
func MeasureSharing(tr *Trace, procsPerNode int) experiments.SharingStats {
	return experiments.MeasureSharing(tr, procsPerNode)
}

// WriteReproduction renders the full reproduction (all tables, figures and
// case studies) to w. It is the library form of `chc repro -all`.
func WriteReproduction(w io.Writer) error { return experiments.WriteAll(w, experiments.Options{}) }
