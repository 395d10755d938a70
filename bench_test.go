// Benchmarks regenerating each of the paper's evaluation artifacts (one
// benchmark per table and figure, as indexed in DESIGN.md §5), the §5.3
// model-vs-simulation cost comparison, and the ablation studies of the
// model's design choices. Figure benchmarks report the mean absolute
// model-vs-simulation deviation as a custom "diffpct" metric; ablations
// report how the deviation moves when a model ingredient is removed.
package memhier

import (
	"io"
	"testing"

	"memhier/internal/core"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/workloads"
)

// --- Tables ---

func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1().Rows) != 3 {
			b.Fatal("bad Table 1")
		}
	}
}

func BenchmarkTable2Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{})
		rows, _, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad Table 2")
		}
	}
}

func BenchmarkTable3SMPCatalog(b *testing.B) {
	benchCatalog(b, machine.SMPCatalog)
}

func BenchmarkTable4WSCatalog(b *testing.B) {
	benchCatalog(b, machine.WSCatalog)
}

func BenchmarkTable5SMPClusterCatalog(b *testing.B) {
	benchCatalog(b, machine.SMPClusterCatalog)
}

func benchCatalog(b *testing.B, catalog func() []machine.Config) {
	b.Helper()
	fft, _ := core.PaperWorkload("FFT")
	for i := 0; i < b.N; i++ {
		for _, cfg := range catalog() {
			if _, err := core.Evaluate(cfg, fft, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figures (model vs simulation validation) ---

func benchFigure(b *testing.B, pick func(*experiments.Suite) (experiments.Validation, error)) {
	b.Helper()
	var mean float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{})
		v, err := pick(s)
		if err != nil {
			b.Fatal(err)
		}
		mean = v.MeanAbsDiff()
	}
	b.ReportMetric(mean, "diffpct")
}

func BenchmarkFigure2SMPValidation(b *testing.B) {
	benchFigure(b, func(s *experiments.Suite) (experiments.Validation, error) { return s.Figure2() })
}

func BenchmarkFigure3ClusterWSValidation(b *testing.B) {
	benchFigure(b, func(s *experiments.Suite) (experiments.Validation, error) { return s.Figure3() })
}

func BenchmarkFigure4ClusterSMPValidation(b *testing.B) {
	benchFigure(b, func(s *experiments.Suite) (experiments.Validation, error) { return s.Figure4() })
}

// --- Case studies ---

func BenchmarkCase1SmallBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Case1(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCase2LargeBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Case2(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCase3Upgrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Case3(2000, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseFFTEthernetVsATM(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.CaseFFT4x(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkCaseModernNetworks runs the beyond-1999 extension experiment,
// reporting the TPC-C cluster/SMP ratio on the SAN fabric (< 1 means the
// paper's SMP recommendation has flipped).
func BenchmarkCaseModernNetworks(b *testing.B) {
	var flip float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CaseModernNetworks(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "TPC-C" && r.Network == "2Gb SAN" {
				flip = r.VsSMP
			}
		}
	}
	b.ReportMetric(flip, "tpcc-san/smp")
}

func BenchmarkCasePrinciples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Principles().Rows) != 5 {
			b.Fatal("bad principles table")
		}
	}
}

// --- §5.3: cost of a prediction vs a simulation ---

func BenchmarkModelVsSimulationSpeed(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{})
		sc, err := s.ModelVsSimSpeed()
		if err != nil {
			b.Fatal(err)
		}
		ratio = sc.Ratio
	}
	b.ReportMetric(ratio, "sim/model")
}

// BenchmarkModelEvaluation times a single analytic evaluation — the paper's
// "0.5 to 1 second and about a hundred bytes" claim, which on modern
// hardware is microseconds.
func BenchmarkModelEvaluation(b *testing.B) {
	cfg, _ := machine.ByName("C14")
	fft, _ := core.PaperWorkload("FFT")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(cfg, fft, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation times one execution-driven simulation of the same
// configuration (the expensive alternative the model replaces).
func BenchmarkSimulation(b *testing.B) {
	cfg, _ := machine.ByName("C14")
	cfg, _ = cfg.Scaled(16)
	w, err := workloads.ByName("fft", workloads.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workloads.GenerateTrace(w, cfg.TotalProcs())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

func benchAblation(b *testing.B, mutate func(*experiments.Options)) {
	b.Helper()
	var mean float64
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{}
		mutate(&opts)
		s := experiments.NewSuite(opts)
		v, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		mean = v.MeanAbsDiff()
	}
	b.ReportMetric(mean, "diffpct")
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(*experiments.Options) {})
}

func BenchmarkAblationContention(b *testing.B) {
	benchAblation(b, func(o *experiments.Options) { o.Model.NoContention = true })
}

func BenchmarkAblationBarrier(b *testing.B) {
	benchAblation(b, func(o *experiments.Options) { o.Model.NoBarrier = true })
}

func BenchmarkAblationCoherenceAdjust(b *testing.B) {
	benchAblation(b, func(o *experiments.Options) { o.Model.CoherenceAdjust = -1 })
}

func BenchmarkAblationRescale(b *testing.B) {
	benchAblation(b, func(o *experiments.Options) { o.Model.NoRescale = true })
}

// BenchmarkAblationMVA swaps the paper's open M/D/1 contention model for
// exact closed-network MVA and reports the validation deviation.
func BenchmarkAblationMVA(b *testing.B) {
	benchAblation(b, func(o *experiments.Options) { o.Model.UseMVA = true })
}

// BenchmarkAblationGranularity compares characterization at item vs line
// granularity, reporting the fitted β ratio.
func BenchmarkAblationGranularity(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		w, err := workloads.ByName("fft", workloads.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		item, err := workloads.Characterize(w, workloads.CharacterizeOptions{LineSize: 1})
		if err != nil {
			b.Fatal(err)
		}
		line, err := workloads.Characterize(w, workloads.CharacterizeOptions{LineSize: 64})
		if err != nil {
			b.Fatal(err)
		}
		ratio = item.Params.Beta / line.Params.Beta
	}
	b.ReportMetric(ratio, "betaItem/betaLine")
}

// BenchmarkFullReproduction regenerates everything, end to end.
func BenchmarkFullReproduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteAll(io.Discard, experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
