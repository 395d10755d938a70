package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"memhier/internal/core"
	"memhier/internal/experiments"
	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/stackdist"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// coldRepros is how many fresh processes time their first reproduction
// for repro's set-up figure; the run's own first op is one of them.
const coldRepros = 3

// suiteDivisor is the capacity divisor experiments.Options{} applies to
// the catalog configurations.
const suiteDivisor = 16

// loadGolden reads "<sha256>  <artifact>" lines.
func loadGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			golden[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if len(golden) == 0 {
		return nil, fmt.Errorf("golden digests: %s holds no entries", path)
	}
	return golden, nil
}

// reproOp is one op of the repro workload: a fresh Suite whose artifacts
// are all rendered over NumCPU workers, as chc-repro -all does. It returns
// the op's wall time, the Suite (for the model error), and the rendered
// bytes of every artifact by name.
func reproOp() (time.Duration, *experiments.Suite, map[string][]byte, error) {
	start := time.Now()
	s := experiments.NewSuite(experiments.Options{})
	arts := s.Artifacts()
	bufs := make([]bytes.Buffer, len(arts))
	for i := range arts {
		render, buf := arts[i].Render, &bufs[i]
		arts[i].Render = func(w io.Writer) error {
			if err := render(buf); err != nil {
				return err
			}
			_, err := w.Write(buf.Bytes())
			return err
		}
	}
	err := experiments.RenderArtifacts(io.Discard, arts, runtime.NumCPU(), nil)
	d := time.Since(start)
	out := make(map[string][]byte, len(arts))
	for i, a := range arts {
		if a.Deterministic {
			out[a.Name] = bufs[i].Bytes()
		}
	}
	return d, s, out, err
}

// checkArtifacts compares every deterministic artifact's digest with the
// golden one and requires every golden artifact to be present.
func checkArtifacts(golden map[string]string, out map[string][]byte) error {
	for name, want := range golden {
		b, ok := out[name]
		if !ok {
			return fmt.Errorf("artifact %s was not rendered", name)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			return fmt.Errorf("artifact %s: sha256 %s, golden %s", name, got, want)
		}
	}
	for name := range out {
		if _, ok := golden[name]; !ok {
			return fmt.Errorf("artifact %s has no golden digest", name)
		}
	}
	return nil
}

// coldReproChild times one checked reproduction in a fresh process and
// prints the seconds; the parent takes the median over several children.
func coldReproChild(goldenPath string) int {
	golden, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	d, _, out, err := reproOp()
	if err == nil {
		err = checkArtifacts(golden, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench: cold reproduction:", err)
		return 1
	}
	fmt.Println(d.Seconds())
	return 0
}

// coldRepro runs coldReproChild in a new process of this binary.
func coldRepro(goldenPath string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-cold-repro", "-golden", goldenPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold reproduction: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// figureRows returns the Figure 2–4 validation rows of a Suite.
func figureRows(s *experiments.Suite) ([]experiments.ValidationRow, error) {
	var rows []experiments.ValidationRow
	for _, fig := range []func() (experiments.Validation, error){s.Figure2, s.Figure3, s.Figure4} {
		v, err := fig()
		if err != nil {
			return nil, err
		}
		rows = append(rows, v.Rows...)
	}
	return rows, nil
}

// meanAbsErrPct is the mean |ModelE − SimE| / SimE over the rows, in %.
func meanAbsErrPct(rows []experiments.ValidationRow) float64 {
	var s float64
	for _, r := range rows {
		s += math.Abs(r.ModelE-r.SimE) / r.SimE
	}
	return 100 * s / float64(len(rows))
}

func runRepro(p params) (*outcome, error) {
	if p.trace {
		return traceRepro(p)
	}
	golden, err := loadGolden(p.golden)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	// The process's first reproduction is cold: it is set-up, not an op.
	d, _, out, err := reproOp()
	if err == nil {
		err = checkArtifacts(golden, out)
	}
	o.check(err)
	o.setup = append(o.setup, d.Seconds())
	for i := 1; i < coldRepros; i++ {
		secs, err := coldRepro(p.golden)
		o.check(err)
		if err == nil {
			o.setup = append(o.setup, secs)
		}
	}

	var last *experiments.Suite
	start, rt0 := startLoop()
	for o.ops == 0 || time.Since(start) < p.seconds {
		d, s, out, err := reproOp()
		if err == nil {
			err = checkArtifacts(golden, out)
		}
		o.check(err)
		o.opMs = append(o.opMs, ms(d))
		o.ops++
		last = s
	}
	if err := o.endLoop(start, rt0); err != nil {
		return nil, err
	}

	rows, err := figureRows(last)
	if err != nil {
		return nil, err
	}
	repro, _ := median(o.opMs)
	o.notes = []note{
		{"repro_s", repro.Value / 1000, "s", repro.N},
		{"model_err_pct", meanAbsErrPct(rows), "%", len(rows)},
	}
	return o, nil
}

// pair is one (configuration, kernel) point of Figures 2–4.
type pair struct {
	name string // catalog name, as the figures print it
	cfg  machine.Config
	wl   workloads.Workload
}

// reproPlan enumerates the Suite's validation inputs from the public
// catalog: C1–C15 scaled by the Suite's divisor × the four kernels, in
// the figures' row order.
func reproPlan() ([]pair, error) {
	var plan []pair
	for _, cfgs := range [][]machine.Config{machine.SMPCatalog(), machine.WSCatalog(), machine.SMPClusterCatalog()} {
		for _, c := range cfgs {
			scaled, err := c.Scaled(suiteDivisor)
			if err != nil {
				return nil, err
			}
			for _, w := range workloads.Suite(workloads.ScaleSmall) {
				plan = append(plan, pair{name: c.Name, cfg: scaled, wl: w})
			}
		}
	}
	return plan, nil
}

// replayed is what one replay produced.
type replayed struct {
	rows      []experiments.ValidationRow
	traces    map[string]*trace.Trace // by kernel/nproc
	events    uint64                  // trace events generated
	classRefs classTally              // references simulated, by class
}

// coveredArtifacts are the artifacts whose work the replay performs
// layer by layer; the rest are rendered whole.
var coveredArtifacts = map[string]bool{
	"table2": true, "figure2": true, "figure3": true, "figure4": true,
	"case1": true, "case2": true, "case3": true,
}

// replay runs one reproduction serially through the layers' public
// functions, on the Suite's own inputs, with a span around each call.
// The non-deterministic §5.3 timing artifact is left out.
func replay(rec *Recorder, op string, plan []pair) (replayed, error) {
	root := rec.Start(op, "repro.replay", 0)
	defer root.End()
	r := replayed{traces: map[string]*trace.Trace{}}
	in := root.ID()

	chars := map[string]workloads.Characterization{}
	for _, w := range workloads.Suite(workloads.ScaleSmall) {
		sp := rec.Start(op, "workloads.characterize", in)
		c, err := workloads.Characterize(w, workloads.CharacterizeOptions{LineSize: 64})
		if err == nil {
			// Table 2 reports the data-item granularity.
			_, err = workloads.Characterize(w, workloads.CharacterizeOptions{})
		}
		sp.End()
		if err != nil {
			return r, err
		}
		chars[w.Name()] = c
	}

	shares := map[string]experiments.SharingStats{}
	for _, pt := range plan {
		key := fmt.Sprintf("%s/%d", pt.wl.Name(), pt.cfg.TotalProcs())
		tr, ok := r.traces[key]
		if !ok {
			sp := rec.Start(op, "workloads.generate", in)
			var err error
			tr, err = workloads.GenerateTrace(pt.wl, pt.cfg.TotalProcs())
			sp.End()
			if err != nil {
				return r, err
			}
			r.traces[key] = tr
			r.events += traceEvents(tr)
		}
		shareKey := fmt.Sprintf("%s/%d", key, pt.cfg.Procs)
		if _, ok := shares[shareKey]; pt.cfg.N > 1 && !ok {
			sp := rec.Start(op, "experiments.sharing", in)
			shares[shareKey] = experiments.MeasureSharing(tr, pt.cfg.Procs)
			sp.End()
		}
	}

	for _, pt := range plan {
		key := fmt.Sprintf("%s/%d", pt.wl.Name(), pt.cfg.TotalProcs())
		wl := experiments.ModelWorkload(chars[pt.wl.Name()])
		if pt.cfg.N > 1 {
			sh := shares[fmt.Sprintf("%s/%d", key, pt.cfg.Procs)]
			wl.RemoteShare = sh.RemoteShare
			wl.CoherenceMissRate = sh.CoherenceMissRate
		}
		sp := rec.Start(op, "core.evaluate", in)
		res, err := core.Evaluate(pt.cfg, wl, core.Options{})
		sp.End()
		if err != nil {
			return r, fmt.Errorf("model %s/%s: %w", pt.name, pt.wl.Name(), err)
		}
		sp = rec.Start(op, "sim.run", in)
		sim, err := simulate(r.traces[key], pt.cfg)
		sp.End()
		if err != nil {
			return r, fmt.Errorf("sim %s/%s: %w", pt.name, pt.wl.Name(), err)
		}
		r.classRefs.add(sim)
		r.rows = append(r.rows, experiments.ValidationRow{
			Config: pt.name, Workload: pt.wl.Name(), ModelE: res.EInstr, SimE: sim.EInstr,
		})
	}

	for _, c := range []func() error{
		func() error { _, _, err := experiments.Case1(core.Options{}); return err },
		func() error { _, _, err := experiments.Case2(core.Options{}); return err },
		func() error { _, _, err := experiments.Case3(2000, core.Options{}); return err },
	} {
		sp := rec.Start(op, "cost.optimize", in)
		err := c()
		sp.End()
		if err != nil {
			return r, err
		}
	}

	for _, a := range experiments.NewSuite(experiments.Options{}).Artifacts() {
		if coveredArtifacts[a.Name] || !a.Deterministic {
			continue
		}
		sp := rec.Start(op, "experiments.render", in)
		err := a.Render(io.Discard)
		sp.End()
		if err != nil {
			return r, fmt.Errorf("render %s: %w", a.Name, err)
		}
	}
	return r, nil
}

// simulate builds the modelled system, caches empty, and runs the trace.
func simulate(tr *trace.Trace, cfg machine.Config) (backend.RunResult, error) {
	sys, err := backend.NewSystem(cfg)
	if err != nil {
		return backend.RunResult{}, err
	}
	return backend.Run(tr, sys)
}

func traceEvents(tr *trace.Trace) uint64 {
	var n uint64
	for _, s := range tr.Streams {
		n += uint64(len(s.Events))
	}
	return n
}

// sameRows reports whether the replay reproduced the figures exactly.
func sameRows(got, want []experiments.ValidationRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay produced %d rows, figures have %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Config != w.Config || g.Workload != w.Workload || g.ModelE != w.ModelE || g.SimE != w.SimE {
			return fmt.Errorf("row %d: replay %s/%s model %v sim %v, figure %s/%s model %v sim %v",
				i, g.Config, g.Workload, g.ModelE, g.SimE, w.Config, w.Workload, w.ModelE, w.SimE)
		}
	}
	return nil
}

// traceRepro is repro's traced run: replays alternate with tracing off and
// on, then each named artifact is rendered alone and the stack-distance
// and fit layers are probed on the replay's traces.
func traceRepro(p params) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	plan, err := reproPlan()
	if err != nil {
		return nil, err
	}
	figures, err := figureRows(experiments.NewSuite(experiments.Options{}))
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	var traced, untraced []float64
	var last replayed
	start, rt0 := startLoop()
	for i := 0; len(traced) == 0 || time.Since(start) < p.seconds; i++ {
		for _, on := range []bool{false, true} {
			var r *Recorder
			if on {
				r = rec
			}
			t0 := time.Now()
			got, err := replay(r, fmt.Sprintf("replay-%d", i), plan)
			d := time.Since(t0)
			if err == nil {
				err = sameRows(got.rows, figures)
			}
			o.check(err)
			o.ops++
			if on {
				traced = append(traced, ms(d))
				if err == nil {
					last = got
				}
			} else {
				untraced = append(untraced, ms(d))
			}
		}
	}
	if err := o.endLoop(start, rt0); err != nil {
		return nil, err
	}

	spans := rec.Spans()
	b := buildBudget("repro", "repro.replay", spans)
	b.Traced, b.Untraced = medianDuration(traced), medianDuration(untraced)
	o.budget = &b
	n := float64(b.Ops)
	perOp := func(name string) float64 { return sum(durationsMs(spans, name)) / n }
	o.layers["workloads.gen_ms"] = perOp("workloads.generate")
	o.layers["workloads.events_m"] = float64(last.events) / 1e6
	o.layers["workloads.characterize_ms"] = perOp("workloads.characterize")
	o.layers["experiments.sharing_ms"] = perOp("experiments.sharing")
	o.layers["cost.optimize_ms"] = perOp("cost.optimize")
	evals := durationsMs(spans, "core.evaluate")
	if q, err := median(evals); err == nil {
		o.layers["core.evaluate_us"] = q.Value * 1000
	}
	o.layers["core.evaluate_calls"] = float64(len(evals)) / n
	simMs := perOp("sim.run")
	o.layers["sim.run_ms"] = simMs
	o.layers["sim.refs_m"] = last.classRefs.total / 1e6
	o.layers["sim.ns_per_ref.l1"] = simMs * 1e6 / last.classRefs.total
	last.classRefs.report(o.layers)

	// Each figure-level artifact rendered alone, serially, in output order
	// on a fresh Suite: a serial chc-repro's per-artifact profile.
	s := experiments.NewSuite(experiments.Options{})
	for _, a := range s.Artifacts() {
		if !coveredArtifacts[a.Name] {
			continue
		}
		t0 := time.Now()
		err := a.Render(io.Discard)
		o.layers["experiments.render_ms."+a.Name] = ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", a.Name, err)
		}
	}

	// Characterize runs stack distance and the fit inside one call; probe
	// both layers on the replay's two-processor traces at 64-byte lines.
	var refs uint64
	for _, w := range workloads.Suite(workloads.ScaleSmall) {
		tr := last.traces[fmt.Sprintf("%s/2", w.Name())]
		sp := rec.Start("probe", "stackdist.analyze", 0)
		dist, err := workloads.AnalyzeStreams(tr, 64)
		sp.End()
		if err != nil {
			return nil, err
		}
		refs += dist.Total + dist.Cold
		xs, ps := fitPoints(dist)
		sp = rec.Start("probe", "locality.fit", 0)
		_, _, err = locality.Fit(xs, ps, locality.FitOptions{})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("fit %s: %w", w.Name(), err)
		}
	}
	spans = rec.Spans()
	o.layers["stackdist.analyze_ms"] = sum(durationsMs(spans, "stackdist.analyze"))
	o.layers["stackdist.refs_m"] = float64(refs) / 1e6
	o.layers["locality.fit_ms"] = sum(durationsMs(spans, "locality.fit"))
	o.notes = []note{{"replay_rows_exact", float64(len(figures)), "rows", 0}}
	return o, nil
}

// fitPoints prepares a distribution for locality.Fit the way Characterize
// does: 512 log-spaced points, distances below 2 split off as hit mass.
func fitPoints(d stackdist.Distribution) (xs, ps []float64) {
	d = d.Downsample(512)
	hit := d.CDF(1)
	allXs, allPs := d.Points()
	for i := range allXs {
		if allXs[i] >= 2 {
			xs = append(xs, allXs[i])
			ps = append(ps, (allPs[i]-hit)/(1-hit))
		}
	}
	return xs, ps
}

// durationsMs returns the durations of the spans with the given name.
func durationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

func medianDuration(msSamples []float64) time.Duration {
	q, err := median(msSamples)
	if err != nil {
		return 0
	}
	return time.Duration(q.Value * 1e6)
}
