package core

// Property and metamorphic tests for the analytical model: facts that
// must hold for every workload and platform, regardless of the fitted
// constants — a bigger cache can never slow a program down, slower memory
// can never speed it up, evaluation order is immaterial, and the queueing
// layer diverges only where, and how, the guard says it does.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"memhier/internal/machine"
	"memhier/internal/queueing"
)

// monotonicityConfigs are the platform shapes the growth/latency
// properties sweep: one SMP, one NOW, one cluster of SMPs, so every
// hierarchy branch (bus, network, DSM) is exercised.
func monotonicityConfigs() []machine.Config {
	return []machine.Config{
		{Name: "custom", Kind: machine.SMP, N: 1, Procs: 8,
			CacheBytes: 256 << 10, MemoryBytes: 64 << 20,
			Net: machine.NetNone, ClockMHz: machine.ReferenceClockMHz},
		{Name: "custom", Kind: machine.ClusterWS, N: 8, Procs: 1,
			CacheBytes: 256 << 10, MemoryBytes: 64 << 20,
			Net: machine.NetBus100, ClockMHz: machine.ReferenceClockMHz},
		{Name: "custom", Kind: machine.ClusterSMP, N: 4, Procs: 4,
			CacheBytes: 256 << 10, MemoryBytes: 64 << 20,
			Net: machine.NetSwitch155, ClockMHz: machine.ReferenceClockMHz},
	}
}

// relTol absorbs fixed-point bisection noise: the solver stops at a
// tolerance, so "equal" operating points can differ by strictly less than
// the termination width.
const relTol = 1e-6

func TestEInstrNonIncreasingInCacheSize(t *testing.T) {
	for _, cfg := range monotonicityConfigs() {
		for _, wl := range PaperWorkloads() {
			t.Run(fmt.Sprintf("%s-%dx%d/%s", cfg.Kind, cfg.N, cfg.Procs, wl.Name), func(t *testing.T) {
				prev := math.Inf(1)
				for cacheKB := int64(16); cacheKB <= 16<<10; cacheKB *= 4 {
					c := cfg
					c.CacheBytes = cacheKB << 10
					res, err := Evaluate(c, wl, Options{})
					if err != nil {
						// A tiny cache can push a shared level past the
						// saturation guard; a refusal is fine, but the model
						// must not refuse a *bigger* cache after accepting a
						// smaller one.
						if !math.IsInf(prev, 1) {
							t.Fatalf("cache %d KB rejected after a smaller cache was accepted: %v", cacheKB, err)
						}
						continue
					}
					if res.EInstr <= 0 || math.IsNaN(res.EInstr) {
						t.Fatalf("cache %d KB: EInstr = %v", cacheKB, res.EInstr)
					}
					if res.EInstr > prev*(1+relTol) {
						t.Errorf("cache %d KB: EInstr %.9g > %.9g at a quarter the cache — bigger cache slowed the model down",
							cacheKB, res.EInstr, prev)
					}
					prev = res.EInstr
				}
			})
		}
	}
}

func TestEInstrNonDecreasingInMissLatency(t *testing.T) {
	for _, cfg := range monotonicityConfigs() {
		for _, wl := range PaperWorkloads() {
			t.Run(fmt.Sprintf("%s-%dx%d/%s", cfg.Kind, cfg.N, cfg.Procs, wl.Name), func(t *testing.T) {
				prev := 0.0
				for _, factor := range []float64{1, 2, 4, 8} {
					lat := machine.LatenciesAt(cfg.Kind, cfg.ClockMHz)
					lat.LocalMemory *= factor
					lat.LocalDisk *= factor
					lat.RemoteCache *= factor
					rn := make(map[machine.NetworkKind]float64, len(lat.RemoteNode))
					for k, v := range lat.RemoteNode {
						rn[k] = v * factor
					}
					lat.RemoteNode = rn
					rc := make(map[machine.NetworkKind]float64, len(lat.RemoteCached))
					for k, v := range lat.RemoteCached {
						rc[k] = v * factor
					}
					lat.RemoteCached = rc

					res, err := Evaluate(cfg, wl, Options{Latencies: &lat})
					if err != nil {
						var sat *queueing.SaturationError
						if errors.As(err, &sat) {
							// Slower devices raise utilization; saturating at
							// high factors is legitimate divergence. Nothing
							// after this factor can be checked.
							return
						}
						t.Fatalf("factor %v: %v", factor, err)
					}
					if res.EInstr < prev*(1-relTol) {
						t.Errorf("factor %v: EInstr %.9g < %.9g at faster devices — slower memory sped the model up",
							factor, res.EInstr, prev)
					}
					prev = res.EInstr
				}
			})
		}
	}
}

func TestEvaluateInvariantUnderOrderPermutation(t *testing.T) {
	// The model must be a pure function of (config, workload, options):
	// evaluating a batch forwards, backwards, and interleaved yields
	// bit-identical results, i.e. no hidden state leaks between calls.
	type job struct {
		cfg machine.Config
		wl  Workload
	}
	var jobs []job
	for _, cfg := range monotonicityConfigs() {
		for _, wl := range PaperWorkloads() {
			jobs = append(jobs, job{cfg, wl})
		}
	}
	run := func(order []int) []Result {
		out := make([]Result, len(jobs))
		for _, i := range order {
			res, err := Evaluate(jobs[i].cfg, jobs[i].wl, Options{})
			if err != nil {
				t.Fatalf("job %d (%s/%s): %v", i, jobs[i].cfg.Kind, jobs[i].wl.Name, err)
			}
			out[i] = res
		}
		return out
	}

	forward := make([]int, len(jobs))
	backward := make([]int, len(jobs))
	interleaved := make([]int, 0, len(jobs))
	for i := range jobs {
		forward[i] = i
		backward[i] = len(jobs) - 1 - i
	}
	for i := 0; i < len(jobs); i += 2 {
		interleaved = append(interleaved, i)
	}
	for i := 1; i < len(jobs); i += 2 {
		interleaved = append(interleaved, i)
	}

	base := run(forward)
	for name, order := range map[string][]int{"backward": backward, "interleaved": interleaved} {
		got := run(order)
		for i := range jobs {
			//chc:allow floateq -- bit-identity is the property under test
			if got[i].EInstr != base[i].EInstr || got[i].T != base[i].T {
				t.Errorf("%s order: job %d (%s/%s) diverged: EInstr %v vs %v",
					name, i, jobs[i].cfg.Kind, jobs[i].wl.Name, got[i].EInstr, base[i].EInstr)
			}
		}
	}
}

func TestMD1WaitMonotoneInRho(t *testing.T) {
	const tau = 25.0
	guard := queueing.Guard{MaxRho: queueing.DefaultMaxRho}
	prev := 0.0
	for rho := 0.0; rho < 0.995; rho += 0.005 {
		lambda := rho / tau
		r, err := queueing.MD1ResponseGuarded(tau, lambda, guard)
		if err != nil {
			t.Fatalf("rho %.3f: %v", rho, err)
		}
		if r < tau*(1-relTol) {
			t.Fatalf("rho %.3f: response %v below the uncontended service time %v", rho, r, tau)
		}
		if r < prev {
			t.Fatalf("rho %.3f: response %v < %v at lower load — wait not monotone in rho", rho, r, prev)
		}
		prev = r
	}
	// Approaching the guard from below the response grows without bound:
	// at ρ = 0.9985 the M/D/1 response exceeds 300 service times.
	r, err := queueing.MD1ResponseGuarded(tau, 0.9985/tau, guard)
	if err != nil {
		t.Fatalf("just below guard: %v", err)
	}
	if r < 300*tau {
		t.Errorf("rho 0.9985: response %v, want > %v (controlled divergence near saturation)", r, 300*tau)
	}
}

func TestMD1DivergesControlledlyAtGuard(t *testing.T) {
	const tau = 25.0
	guard := queueing.Guard{MaxRho: queueing.DefaultMaxRho}

	// In (MaxRho, 1): refused as near-saturated, with the offending rho
	// reported in the structured error.
	rho := (queueing.DefaultMaxRho + 1) / 2
	_, err := queueing.MD1ResponseGuarded(tau, rho/tau, guard)
	if !errors.Is(err, queueing.ErrNearSaturated) {
		t.Fatalf("rho %v: err = %v, want ErrNearSaturated", rho, err)
	}
	var sat *queueing.SaturationError
	if !errors.As(err, &sat) {
		t.Fatalf("near-saturation error %v carries no SaturationError", err)
	}
	if math.Abs(sat.Rho-rho) > 1e-12 {
		t.Errorf("reported rho %v, offered %v", sat.Rho, rho)
	}

	// At and beyond 1: saturated, guard or no guard.
	for _, rho := range []float64{1.0, 1.5} {
		_, err := queueing.MD1ResponseGuarded(tau, rho/tau, queueing.Guard{})
		if !errors.Is(err, queueing.ErrSaturated) {
			t.Errorf("rho %v unguarded: err = %v, want ErrSaturated", rho, err)
		}
		_, err = queueing.MD1ResponseGuarded(tau, rho/tau, guard)
		if !errors.Is(err, queueing.ErrSaturated) {
			t.Errorf("rho %v guarded: err = %v, want ErrSaturated", rho, err)
		}
	}
}
