// Command pipebench is the repository's end-to-end benchmark. It drives the
// pipeline from outside, through its packages' public functions, on three
// workloads:
//
//   - repro: the full paper reproduction (chc-repro -all);
//   - sim-deep: the simulator engine on 1-, 2- and 3-level hierarchies;
//   - serve: a two-node chc-serve cluster under a closed loop of predicts
//     and sweeps.
//
// Every op's output is checked; a wrong output counts as a failed op. The
// last line of standard output is one JSON object with the run's metrics:
// the end-to-end metrics of BENCHMARK.json, or with -trace 1 the per-layer
// metrics and a time budget measured from spans around each layer call.
//
// Run it from the repository root:
//
//	bash pipebench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is a metric name with its unit.
type named struct{ name, unit string }

// endToEnd lists the untraced run's metrics. Each is defined on every
// workload; the op is one reproduction (repro), one simulator pass
// (sim-deep) or one HTTP request (serve).
var endToEnd = []named{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "op/s"},
	{"max_rss_mib", "MiB"},
	{"alloc_kib_per_op", "KiB"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []named{
	{"workloads.gen_ms", "ms"},
	{"workloads.events_m", "Mevent"},
	{"workloads.characterize_ms", "ms"},
	{"stackdist.analyze_ms", "ms"},
	{"stackdist.refs_m", "Mref"},
	{"locality.fit_ms", "ms"},
	{"experiments.sharing_ms", "ms"},
	{"experiments.render_ms.table2", "ms"},
	{"experiments.render_ms.figure2", "ms"},
	{"experiments.render_ms.figure3", "ms"},
	{"experiments.render_ms.figure4", "ms"},
	{"experiments.render_ms.case1", "ms"},
	{"experiments.render_ms.case2", "ms"},
	{"experiments.render_ms.case3", "ms"},
	{"core.evaluate_us", "us"},
	{"core.evaluate_calls", "count"},
	{"cost.optimize_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.refs_m", "Mref"},
	{"sim.ns_per_ref.l1", "ns"},
	{"sim.ns_per_ref.l2", "ns"},
	{"sim.ns_per_ref.l3", "ns"},
	{"sim.deep3_over_l1", "ratio"},
	{"sim.stream_ns_per_ref", "ns"},
	{"sim.share.cache", "fraction"},
	{"sim.share.l2-cache", "fraction"},
	{"sim.share.l3-cache", "fraction"},
	{"sim.share.remote-cache", "fraction"},
	{"sim.share.local-memory", "fraction"},
	{"sim.share.remote-node", "fraction"},
	{"sim.share.remote-cached", "fraction"},
	{"sim.share.disk", "fraction"},
	{"server.handler_us.hit", "us"},
	{"server.handler_us.miss", "us"},
	{"server.http_us", "us"},
	{"server.hit_ratio", "fraction"},
	{"cluster.forward_us", "us"},
	{"cluster.forwards", "count"},
	{"cluster.forward_share", "fraction"},
	{"cluster.fallbacks", "count"},
	{"runtime.gc_cycles", "1/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"trace.overhead_pct", "%"},
	{"trace.unexplained_share", "fraction"},
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	setup             []float64       // seconds, one per set-up repetition
	opMs              []float64       // end-to-end time of each timed op
	ops               int             // ops completed in the timed loop
	loop              time.Duration   // wall time of the timed loop
	rt                runtimeCounters // runtime counters over the timed loop
	rssMiB            float64         // peak resident set over the timed loop
	// notes are the workload's own end-to-end figures (repro_s,
	// sim_mrefs_per_s, p99_ms, ...), printed as text before the result.
	notes  []note
	layers map[string]float64 // per-layer metrics (traced runs)
	budget *budget            // traced runs
}

type note struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when it is not a statistic
}

func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "pipebench: failed op:", err)
	}
}

// startLoop begins the timed loop's accounting: runtime counters and a
// fresh peak-RSS window. outcome.endLoop closes it.
func startLoop() (time.Time, runtimeCounters) {
	resetPeakRSS()
	return time.Now(), readRuntime()
}

func (o *outcome) endLoop(start time.Time, rt0 runtimeCounters) (err error) {
	o.loop = time.Since(start)
	o.rt = readRuntime().minus(rt0)
	o.rssMiB, err = peakRSSMiB()
	return err
}

// params are a run's inputs.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	golden  string // golden artifact digests, read at run time
}

var workloadsByName = map[string]func(params) (*outcome, error){
	"repro":    runRepro,
	"sim-deep": runSimDeep,
	"serve":    runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "repro, sim-deep or serve")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed loop, in seconds")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
		golden   = flag.String("golden", "internal/experiments/testdata/golden_artifacts.sha256",
			"golden artifact digests (repro)")
		coldRepro = flag.Bool("cold-repro", false, "internal: time one reproduction in this fresh process")
	)
	flag.Parse()
	if *coldRepro {
		os.Exit(coldReproChild(*golden))
	}
	run, ok := workloadsByName[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: pipebench --workload repro|sim-deep|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, golden: *golden}
	o, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res, err := assemble(*workload, p, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// assemble prints the human-readable report and builds the result line.
func assemble(workload string, p params, o *outcome) (result, error) {
	if o.attempted < 1 || o.ops < 1 {
		return result{}, fmt.Errorf("no op completed")
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s, seed %d, %d ops attempted, %d failed\n", workload, p.seed, o.attempted, o.failed)
	for _, n := range o.notes {
		if n.n > 0 {
			fmt.Printf("  %-22s %14.6g %-6s (n=%d)\n", n.name, n.value, n.unit, n.n)
		} else {
			fmt.Printf("  %-22s %14.6g %s\n", n.name, n.value, n.unit)
		}
	}
	ops := float64(o.ops)
	if !p.trace {
		setup, err := median(o.setup)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		p50, err := median(o.opMs)
		if err != nil {
			return result{}, fmt.Errorf("op time: %w", err)
		}
		values := map[string]float64{
			"setup_s":          setup.Value,
			"p50_ms":           p50.Value,
			"ops_per_s":        ops / o.loop.Seconds(),
			"max_rss_mib":      o.rssMiB,
			"alloc_kib_per_op": float64(o.rt.allocBytes) / 1024 / ops,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
			fmt.Printf("  %-22s %14.6g %s\n", m.name, values[m.name], m.unit)
		}
		return res, nil
	}
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers["runtime.gc_cycles"] = float64(o.rt.gcCycles) / ops
	o.layers["runtime.gc_pause_ms"] = float64(o.rt.pauseNs) / 1e6 / ops
	if b := o.budget; b != nil {
		b.write(os.Stdout)
		o.layers["trace.unexplained_share"] = b.share(b.Root)
		if b.Untraced > 0 {
			o.layers["trace.overhead_pct"] = 100 * float64(b.Traced-b.Untraced) / float64(b.Untraced)
		}
	}
	for _, m := range perLayer {
		v := o.layers[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A layer with no successful call to measure (failed ops).
			fmt.Fprintf(os.Stderr, "pipebench: %s has no samples; reported as 0\n", m.name)
			v = 0
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-30s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}
