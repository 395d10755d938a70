// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 1–5, Figures 2–4) and the §6 case studies, comparing
// the analytical model of internal/core against the execution-driven
// simulators of internal/sim/backend.
//
// Scaling: the validation experiments run the workloads at a reduced
// problem scale with proportionally reduced cache/memory capacities
// (machine.Config.Scaled), so every hierarchy level carries real traffic
// while the whole matrix completes in seconds; EXPERIMENTS.md records the
// paper-scale knobs. Model inputs for the validation come from a
// cache-line-granularity characterization of the same traces the
// simulators consume, which keeps the two sides' units consistent.
//
// Concurrency: a Suite is safe for concurrent use. Its caches are
// single-flight — when several goroutines demand the same trace,
// characterization, or sharing measurement, exactly one computes it and
// the rest block until it lands — so the reproduction pipeline can fan
// tables and figures out over a worker pool without duplicating the
// expensive trace generation.
//
//chc:deterministic
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// Options configures a reproduction run.
type Options struct {
	// Scale selects workload problem sizes (default ScaleSmall).
	Scale workloads.Scale
	// Divisor scales down the catalog configurations' cache and memory
	// capacities to match the reduced problem sizes. Zero means 16;
	// negative values are rejected when a scaled configuration is built.
	Divisor int
	// Model passes through analytical-model options (ablations,
	// calibration).
	Model core.Options
	// GeneratedAt, when non-empty, is embedded in the report header.
	// Leaving it empty (the default) keeps WriteReport byte-identical
	// run-to-run; callers that want a stamp (chc repro -stamp) must say
	// so explicitly and thereby opt out of determinism.
	GeneratedAt string
}

func (o Options) divisor() int {
	if o.Divisor == 0 {
		return 16
	}
	return o.Divisor
}

// flight is one single-flight cache entry: done closes once val/err land.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// flightMap is a concurrency-safe result cache with single-flight
// semantics: the first goroutine to demand a key computes it (outside the
// lock), later goroutines for the same key block on the in-flight call
// instead of recomputing. Results, including errors, are cached for the
// map's lifetime — every computation here is deterministic.
type flightMap[T any] struct {
	mu    sync.Mutex
	calls map[string]*flight[T] // guarded by mu
	// computes counts compute invocations, observable by tests asserting
	// the exactly-once guarantee under concurrent demand.
	computes atomic.Int64
}

func (m *flightMap[T]) get(key string, compute func() (T, error)) (T, error) {
	m.mu.Lock()
	if m.calls == nil {
		m.calls = make(map[string]*flight[T])
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flight[T]{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()

	m.computes.Add(1)
	c.val, c.err = compute()
	close(c.done)
	return c.val, c.err
}

// Suite caches workload traces and characterizations across experiments.
// It is safe for concurrent use by multiple goroutines.
type Suite struct {
	opts   Options
	wls    []workloads.Workload
	chars  flightMap[[]workloads.Characterization] // keyed name: {item, line64}
	traces flightMap[*trace.Trace]                 // keyed name/nproc
	shares flightMap[SharingStats]                 // keyed name/nproc/perNode
}

// NewSuite returns a reproduction suite for the paper's four applications.
func NewSuite(opts Options) *Suite {
	return &Suite{
		opts: opts,
		wls:  workloads.Suite(opts.Scale),
	}
}

// sharing caches MeasureSharing per (workload, trace shape, node grouping).
func (s *Suite) sharing(name string, tr *trace.Trace, perNode int) SharingStats {
	key := fmt.Sprintf("%s/%d/%d", name, tr.NumCPU(), perNode)
	v, _ := s.shares.get(key, func() (SharingStats, error) {
		return MeasureSharing(tr, perNode), nil
	})
	return v
}

// Workloads returns the suite's applications in the paper's order.
func (s *Suite) Workloads() []workloads.Workload { return s.wls }

// Trace returns (and caches) the workload's trace for nproc processors.
// Under concurrent demand the trace is generated exactly once.
func (s *Suite) Trace(w workloads.Workload, nproc int) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", w.Name(), nproc)
	return s.traces.get(key, func() (*trace.Trace, error) {
		return workloads.GenerateTrace(w, nproc)
	})
}

// suiteLineSizes are the granularities every Suite characterization
// measures in its one pass: data items (Table 2) and 64-byte lines (the
// validation model's input).
var suiteLineSizes = []int{1, 64}

// characterizations returns (and caches) the workload's item- and
// line-granularity characterizations, computed together in one pass.
func (s *Suite) characterizations(w workloads.Workload) ([]workloads.Characterization, error) {
	return s.chars.get(w.Name(), func() ([]workloads.Characterization, error) {
		return workloads.CharacterizeLines(w, suiteLineSizes, workloads.CharacterizeOptions{})
	})
}

// characterize returns the line-granularity characterization used as the
// model's input for validation experiments.
func (s *Suite) characterize(w workloads.Workload) (workloads.Characterization, error) {
	cs, err := s.characterizations(w)
	if err != nil {
		return workloads.Characterization{}, err
	}
	return cs[1], nil
}

// characterizeItem returns the data-item-granularity characterization
// Table 2 reports (the paper's "unique data items").
func (s *Suite) characterizeItem(w workloads.Workload) (workloads.Characterization, error) {
	cs, err := s.characterizations(w)
	if err != nil {
		return workloads.Characterization{}, err
	}
	return cs[0], nil
}

// ModelWorkload converts a characterization into the analytical model's
// workload description.
func ModelWorkload(c workloads.Characterization) core.Workload {
	bpi := float64(c.LineSize)
	if bpi < 8 {
		bpi = 8 // item-granularity characterizations use 8-byte items
	}
	wl := core.Workload{
		Name:           c.Workload,
		Locality:       c.Params,
		HitMass:        c.HitMass,
		BytesPerItem:   bpi,
		FootprintItems: float64(c.Distinct),
		ConflictFactor: c.Conflict,
	}
	for _, p := range c.ConflictCurve {
		wl.ConflictCurve = append(wl.ConflictCurve, core.ConflictPoint{
			CapacityItems: float64(p.Bytes) / bpi,
			Kappa:         p.Kappa,
		})
	}
	return wl
}

// scaledConfig shrinks a catalog configuration's capacities for the
// reduced-scale validation runs.
func (s *Suite) scaledConfig(cfg machine.Config) (machine.Config, error) {
	return cfg.Scaled(s.opts.divisor())
}
