package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// simulatedSide is the simulator's half of a validation matrix: for every
// (scaled config, workload) point of a set of configurations, the simulated
// E(Instr) and the sharing measured under the config's processor grouping.
type simulatedSide struct {
	points map[string]simPoint // keyed pointKey(scaled config, workload)
}

// simPoint is one simulated (config, workload) point.
type simPoint struct {
	simE  float64
	share SharingStats // zero on single-machine configs
}

func pointKey(scaled machine.Config, w workloads.Workload) string {
	return scaled.Name + "/" + w.Name()
}

// simulated returns (and caches) the simulated side of the set of catalog
// configurations. Model options are not part of the key: every model
// evaluation over the set, calibration sweeps included, shares it.
func (s *Suite) simulated(set []machine.Config) (*simulatedSide, error) {
	names := make([]string, len(set))
	for i, cfg := range set {
		names[i] = cfg.Name
	}
	return s.sims.get(strings.Join(names, ","), func() (*simulatedSide, error) {
		return s.simulate(set)
	})
}

// streamPass is one generator pass of a simulated side: a workload at one
// processor count, teed into every scaled config of that count.
type streamPass struct {
	w     workloads.Workload
	nproc int
	cfgs  []machine.Config
}

// simulate runs one streamed generator pass per (workload, processor
// count) of the set on runtime.NumCPU long-lived workers. Each pass drives
// every config of its processor count and the sharing measurement of every
// node grouping those configs use, so no trace is ever stored and each
// kernel runs once per processor count. A worker owns its pass state and
// carries it from one pass to the next.
func (s *Suite) simulate(set []machine.Config) (*simulatedSide, error) {
	var nprocs []int
	byProcs := map[int][]machine.Config{}
	for _, cfg := range set {
		scaled, err := s.scaledConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", cfg.Name, err)
		}
		np := scaled.TotalProcs()
		if _, ok := byProcs[np]; !ok {
			nprocs = append(nprocs, np)
		}
		byProcs[np] = append(byProcs[np], scaled)
	}
	var passes []streamPass
	for _, w := range s.wls {
		for _, np := range nprocs {
			passes = append(passes, streamPass{w: w, nproc: np, cfgs: byProcs[np]})
		}
	}

	points := make([][]simPoint, len(passes))
	errs := make([]error, len(passes))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.NumCPU(), len(passes)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st passState
			for i := range jobs {
				s.passes.Add(1)
				points[i], errs[i] = passes[i].run(&st)
			}
		}()
	}
	for i := range passes {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	side := &simulatedSide{points: map[string]simPoint{}}
	for i, p := range passes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for j, cfg := range p.cfgs {
			side.points[pointKey(cfg, p.w)] = points[i][j]
		}
	}
	return side, nil
}

// passState is the storage a simulate worker reuses from one pass to the
// next: the streamed run's phase buffer and the sharing accumulator's
// order-buffer blocks.
type passState struct {
	phases backend.PhaseBuffer
	refs   refPool
}

// run streams the pass's workload once into a simulator per config and
// one sharing accumulator over the node groupings of the multi-machine
// configs, returning one point per config.
func (p streamPass) run(st *passState) ([]simPoint, error) {
	systems := make([]*backend.System, len(p.cfgs))
	group := make([]int, len(p.cfgs)) // index into perNode, or -1 on one machine
	var perNode []int
	for i, cfg := range p.cfgs {
		sys, err := backend.NewSystem(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: sim %s/%s: %w", cfg.Name, p.w.Name(), err)
		}
		systems[i] = sys
		group[i] = -1
		if cfg.N <= 1 {
			continue
		}
		group[i] = slices.Index(perNode, cfg.Procs)
		if group[i] < 0 {
			group[i] = len(perNode)
			perNode = append(perNode, cfg.Procs)
		}
	}
	acc := newSharingAccumulator(p.nproc, perNode...)
	acc.pool = &st.refs
	results, err := backend.StreamRunAll(systems, p.nproc, func(sink trace.Sink) error {
		if len(perNode) == 0 {
			return p.w.Run(p.nproc, sink)
		}
		return p.w.Run(p.nproc, trace.TeeSink{sink, acc})
	}, backend.WithPhaseBuffer(&st.phases))
	if err != nil {
		return nil, fmt.Errorf("experiments: sim %s on %d processors: %w", p.w.Name(), p.nproc, err)
	}
	shares := acc.stats()
	pts := make([]simPoint, len(p.cfgs))
	for i := range p.cfgs {
		pts[i].simE = results[i].EInstr
		if group[i] >= 0 {
			pts[i].share = shares[group[i]]
		}
	}
	return pts, nil
}

// StreamSimulate simulates the workload on cfg from one streamed generator
// pass, never materializing the trace. The result is identical to
// backend.Simulate on workloads.GenerateTrace(w, cfg.TotalProcs()).
func StreamSimulate(w workloads.Workload, cfg machine.Config) (backend.RunResult, error) {
	sys, err := backend.NewSystem(cfg)
	if err != nil {
		return backend.RunResult{}, err
	}
	nproc := cfg.TotalProcs()
	return backend.StreamRun(sys, nproc, func(sink trace.Sink) error {
		return w.Run(nproc, sink)
	})
}
