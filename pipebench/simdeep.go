package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// deepBases are the catalog platforms sim-deep simulates in 1-, 2- and
// 3-level forms; deepPresets are modern multi-level platforms simulated as
// they are. All capacities are divided by suiteDivisor, as the
// reproduction's validation runs divide them.
var (
	deepBases   = []string{"C5", "C9", "C11", "C15"}
	deepPresets = []string{"modern-2s-server", "cloud-vm-8"}
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

// simCase is one platform of a pass.
type simCase struct {
	cfg    machine.Config
	levels int
	base   string // the catalog entry a deepened case came from, else ""
}

// deepCases builds the pass's platforms. The seed deals fixed sets of L2
// and L3 capacity multipliers out to the bases, so every seed simulates
// the same mix of hierarchy sizes on different platforms, and draws each
// level's latency from a fixed range.
func deepCases(seed int64) ([]simCase, error) {
	rng := rand.New(rand.NewSource(seed))
	l2Shift := []int{2, 2, 3, 3} // L2 = 4× or 8× L1
	l3Shift := []int{1, 1, 2, 2} // L3 = 2× or 4× L2
	rng.Shuffle(len(l2Shift), func(i, j int) { l2Shift[i], l2Shift[j] = l2Shift[j], l2Shift[i] })
	rng.Shuffle(len(l3Shift), func(i, j int) { l3Shift[i], l3Shift[j] = l3Shift[j], l3Shift[i] })
	var cases []simCase
	for i, name := range deepBases {
		c, err := machine.ByName(name)
		if err == nil {
			c, err = c.Scaled(suiteDivisor)
		}
		if err != nil {
			return nil, err
		}
		l1 := machine.CacheLevel{Bytes: c.CacheBytes}
		l2 := machine.CacheLevel{Bytes: l1.Bytes << l2Shift[i], LatencyCycles: float64(8 + rng.Intn(7))}
		l3 := machine.CacheLevel{Bytes: l2.Bytes << l3Shift[i], LatencyCycles: float64(30 + rng.Intn(15))}
		two, three := c, c
		two.Name, two.Levels = c.Name+"+L2", []machine.CacheLevel{l1, l2}
		three.Name, three.Levels = c.Name+"+L2+L3", []machine.CacheLevel{l1, l2, l3}
		cases = append(cases, simCase{c, 1, name}, simCase{two, 2, name}, simCase{three, 3, name})
	}
	for _, name := range deepPresets {
		c, err := machine.ByName(name)
		if err == nil {
			c, err = c.Scaled(suiteDivisor)
		}
		if err != nil {
			return nil, err
		}
		cases = append(cases, simCase{cfg: c, levels: len(c.CacheLevels())})
	}
	for _, sc := range cases {
		if err := sc.cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

// deepSetup generates every kernel's trace at each processor count the
// cases need and compiles every stream, as the engine would on first use.
func deepSetup(rec *Recorder, op string, cases []simCase) (map[string]*trace.Trace, uint64, error) {
	root := rec.Start(op, "sim.setup", 0)
	defer root.End()
	traces := map[string]*trace.Trace{}
	var events uint64
	for _, w := range workloads.Suite(workloads.ScaleSmall) {
		for _, sc := range cases {
			key := traceKey(w, sc.cfg)
			if _, ok := traces[key]; ok {
				continue
			}
			sp := rec.Start(op, "workloads.generate", root.ID())
			tr, err := workloads.GenerateTrace(w, sc.cfg.TotalProcs())
			sp.End()
			if err != nil {
				return nil, 0, err
			}
			sp = rec.Start(op, "trace.compile", root.ID())
			for _, s := range tr.Streams {
				if _, err := s.Ops(); err != nil {
					return nil, 0, err
				}
			}
			sp.End()
			traces[key] = tr
			events += traceEvents(tr)
		}
	}
	return traces, events, nil
}

func traceKey(w workloads.Workload, cfg machine.Config) string {
	return fmt.Sprintf("%s/%d", w.Name(), cfg.TotalProcs())
}

// passStats is what one pass measured, beside its results.
type passStats struct {
	refs       uint64
	runTime    [machine.MaxCacheLevels + 1]time.Duration // by hierarchy depth
	runRefs    [machine.MaxCacheLevels + 1]uint64
	baseTime   [machine.MaxCacheLevels + 1]time.Duration // deepened catalog cases only
	streamTime time.Duration
	streamRefs uint64
	classes    classTally
}

// deepPass is one sim-deep op: every kernel on every case with a fresh
// system (caches empty), then one streamed run per kernel on the deepest
// form of the last base. It returns the results in pass order and the
// time spent in the timed calls; each system's coherence check is left
// out of that time.
func deepPass(rec *Recorder, op string, cases []simCase, traces map[string]*trace.Trace) ([]backend.RunResult, passStats, time.Duration, error) {
	var st passStats
	var results []backend.RunResult
	var elapsed time.Duration
	root := rec.Start(op, "sim.pass", 0)
	wls := workloads.Suite(workloads.ScaleSmall)
	for _, w := range wls {
		for _, sc := range cases {
			sp := rec.Start(op, "sim.run", root.ID())
			t0 := time.Now()
			sys, err := backend.NewSystem(sc.cfg)
			var res backend.RunResult
			if err == nil {
				res, err = backend.Run(traces[traceKey(w, sc.cfg)], sys)
			}
			d := time.Since(t0)
			sp.End()
			if err != nil {
				root.End()
				return nil, st, elapsed, fmt.Errorf("run %s/%s: %w", sc.cfg.Name, w.Name(), err)
			}
			elapsed += d
			st.refs += res.MemoryRefs
			st.runTime[sc.levels] += d
			st.runRefs[sc.levels] += res.MemoryRefs
			if sc.base != "" {
				st.baseTime[sc.levels] += d
			}
			st.classes.add(res)
			results = append(results, res)
			if err := verify(rec, op, root.ID(), sys); err != nil {
				root.End()
				return nil, st, elapsed, fmt.Errorf("run %s/%s: %w", sc.cfg.Name, w.Name(), err)
			}
		}
	}
	streamIdx := len(deepBases)*3 - 1 // the 3-level form of the last base
	streamCase := cases[streamIdx]
	for i, w := range wls {
		sp := rec.Start(op, "sim.stream", root.ID())
		t0 := time.Now()
		sys, err := backend.NewSystem(streamCase.cfg)
		var res backend.RunResult
		if err == nil {
			nproc := streamCase.cfg.TotalProcs()
			var opts []backend.StreamOption
			if h, ok := w.(workloads.EventHinter); ok {
				opts = append(opts, backend.WithEventHint(h.EventHint(nproc)*nproc))
			}
			res, err = backend.StreamRun(sys, nproc, func(sink trace.Sink) error { return w.Run(nproc, sink) }, opts...)
		}
		d := time.Since(t0)
		sp.End()
		if err != nil {
			root.End()
			return nil, st, elapsed, fmt.Errorf("stream %s/%s: %w", streamCase.cfg.Name, w.Name(), err)
		}
		elapsed += d
		st.refs += res.MemoryRefs
		st.streamTime += d
		st.streamRefs += res.MemoryRefs
		if mat := results[i*len(cases)+streamIdx]; !sameRun(mat, res) {
			root.End()
			return nil, st, elapsed, fmt.Errorf("stream %s/%s differs from the materialized run", streamCase.cfg.Name, w.Name())
		}
		results = append(results, res)
		if err := verify(rec, op, root.ID(), sys); err != nil {
			root.End()
			return nil, st, elapsed, fmt.Errorf("stream %s/%s: %w", streamCase.cfg.Name, w.Name(), err)
		}
	}
	root.End()
	return results, st, elapsed, nil
}

// verify checks a finished system's coherence invariants, in a check span
// that the time budget leaves out of the op.
func verify(rec *Recorder, op string, parent int64, sys *backend.System) error {
	sp := rec.Start(op, checkPrefix+"coherence", parent)
	defer sp.End()
	return sys.VerifyCoherence()
}

// sameRun compares the modelled outcome of two runs of one trace.
func sameRun(a, b backend.RunResult) bool {
	return a.WallCycles == b.WallCycles && a.Instructions == b.Instructions &&
		a.MemoryRefs == b.MemoryRefs && a.Stats == b.Stats && a.ClassShare == b.ClassShare
}

// classTally accumulates the references each access class served.
type classTally struct {
	refs  []float64
	total float64
}

func (t *classTally) add(r backend.RunResult) {
	if t.refs == nil {
		t.refs = make([]float64, len(r.ClassShare))
	}
	for c, s := range r.ClassShare {
		t.refs[c] += s * float64(r.MemoryRefs)
	}
	t.total += float64(r.MemoryRefs)
}

func (t classTally) report(layers map[string]float64) {
	for c, n := range t.refs {
		layers["sim.share."+backend.AccessClass(c).String()] = n / t.total
	}
}

func runSimDeep(p params) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	cases, err := deepCases(p.seed)
	if err != nil {
		return nil, err
	}
	var rec *Recorder
	if p.trace {
		rec = NewRecorder()
	}
	var traces map[string]*trace.Trace
	var events uint64
	for i := 0; i < setupRepeats; i++ {
		traces = nil // only one set of traces is live at a time
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		traces, events, err = deepSetup(rec, fmt.Sprintf("setup-%d", i), cases)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	var first []backend.RunResult
	var traced, untraced []float64
	var last passStats
	start, rt0 := startLoop()
	// A traced run alternates untraced and traced passes, ending on a
	// traced one.
	done := func() bool {
		return o.ops > 0 && (!p.trace || len(traced) > 0) && time.Since(start) >= p.seconds
	}
	for i := 0; !done(); i++ {
		on := p.trace && i%2 == 1
		var r *Recorder
		if on {
			r = rec
		}
		results, st, d, err := deepPass(r, fmt.Sprintf("pass-%d", i), cases, traces)
		if err == nil && first == nil {
			first = results
		} else if err == nil && !reflect.DeepEqual(results, first) {
			err = fmt.Errorf("pass %d results differ from the first pass", i)
		}
		o.check(err)
		o.ops++
		if err == nil && on == p.trace {
			last = st // figures come from complete passes of the run's kind
		}
		if on {
			traced = append(traced, ms(d))
		} else {
			untraced = append(untraced, ms(d))
			o.opMs = append(o.opMs, ms(d))
		}
	}
	if err := o.endLoop(start, rt0); err != nil {
		return nil, err
	}

	pass, _ := median(o.opMs)
	o.notes = []note{{"sim_mrefs_per_s", float64(last.refs) / 1e6 / (pass.Value / 1000), "Mref/s", pass.N}}
	if !p.trace {
		return o, nil
	}

	spans := rec.Spans()
	b := buildBudget("sim-deep", "sim.pass", spans)
	b.Traced, b.Untraced = medianDuration(traced), medianDuration(untraced)
	o.budget = &b
	o.layers["workloads.gen_ms"] = sum(durationsMs(spans, "workloads.generate")) / setupRepeats
	o.layers["workloads.events_m"] = float64(events) / 1e6
	o.layers["sim.run_ms"] = sum(durationsMs(spans, "sim.run")) / float64(b.Ops)
	var runRefs uint64
	for lv := 1; lv <= machine.MaxCacheLevels; lv++ {
		runRefs += last.runRefs[lv]
		if last.runRefs[lv] > 0 {
			o.layers[fmt.Sprintf("sim.ns_per_ref.l%d", lv)] = float64(last.runTime[lv]) / float64(last.runRefs[lv])
		}
	}
	o.layers["sim.refs_m"] = float64(runRefs) / 1e6
	o.layers["sim.deep3_over_l1"] = float64(last.baseTime[3]) / float64(last.baseTime[1])
	o.layers["sim.stream_ns_per_ref"] = float64(last.streamTime) / float64(last.streamRefs)
	last.classes.report(o.layers)
	return o, nil
}
