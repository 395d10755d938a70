package experiments

import (
	"reflect"
	"strings"
	"testing"

	"memhier/internal/core"
	"memhier/internal/machine"
	"memhier/internal/trace"
)

func TestTable1(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 1 has %d rows, want 3", len(tab.Rows))
	}
	out := tab.String()
	for _, want := range []string{"SMP", "workstations", "A", "B", "C"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	s := NewSuite(Options{})
	rows, tab, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(rows))
	}
	names := []string{"FFT", "LU", "Radix", "EDGE"}
	for i, r := range rows {
		if r.Char.Workload != names[i] {
			t.Errorf("row %d is %s, want %s", i, r.Char.Workload, names[i])
		}
		if err := r.Char.Params.Validate(); err != nil {
			t.Errorf("%s: invalid fit: %v", r.Char.Workload, err)
		}
		if r.PaperAlpha == 0 || r.PaperBeta == 0 || r.PaperGamma == 0 {
			t.Errorf("%s: missing paper reference values", r.Char.Workload)
		}
	}
	if !strings.Contains(tab.String(), "gamma") {
		t.Error("Table 2 missing gamma column")
	}
}

func TestConfigTables(t *testing.T) {
	if got := len(Table3().Rows); got != 6 {
		t.Errorf("Table 3 rows = %d, want 6", got)
	}
	if got := len(Table4().Rows); got != 5 {
		t.Errorf("Table 4 rows = %d, want 5", got)
	}
	if got := len(Table5().Rows); got != 4 {
		t.Errorf("Table 5 rows = %d, want 4", got)
	}
	if got := len(PaperTable2().Rows); got != 5 {
		t.Errorf("paper Table 2 rows = %d, want 5", got)
	}
	if !strings.Contains(Table4().String(), "155Mb switch") {
		t.Error("Table 4 missing the ATM switch")
	}
}

// checkValidation asserts the qualitative reproduction contract for a
// figure: finite values, a bounded mean deviation, and model/sim agreement
// on which program is cheapest per configuration (LU throughout the suite).
func checkValidation(t *testing.T, v Validation, meanBound float64) {
	t.Helper()
	if len(v.Rows) == 0 {
		t.Fatal("no validation rows")
	}
	if m := v.MeanAbsDiff(); m > meanBound {
		t.Errorf("%s: mean |diff| %.1f%% exceeds %.0f%%", v.Title, m, meanBound)
	}
	byConfig := map[string]map[string][2]float64{}
	for _, r := range v.Rows {
		if r.ModelE <= 0 || r.SimE <= 0 {
			t.Fatalf("%s: degenerate row %+v", v.Title, r)
		}
		if byConfig[r.Config] == nil {
			byConfig[r.Config] = map[string][2]float64{}
		}
		byConfig[r.Config][r.Workload] = [2]float64{r.ModelE, r.SimE}
	}
	for cfg, m := range byConfig {
		if len(m) != 4 {
			t.Errorf("%s/%s: %d workloads, want 4", v.Title, cfg, len(m))
			continue
		}
		for _, other := range []string{"FFT", "Radix"} {
			if !(m["LU"][0] < m[other][0]) || !(m["LU"][1] < m[other][1]) {
				t.Errorf("%s/%s: model and sim should both rank LU below %s (model %v vs %v, sim %v vs %v)",
					v.Title, cfg, other, m["LU"][0], m[other][0], m["LU"][1], m[other][1])
			}
		}
	}
}

func TestFigure2SMPValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation matrix")
	}
	s := NewSuite(Options{})
	v, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	checkValidation(t, v, 60)
	// On its own, Figure 2 streams only C1–C6: 4 kernels × 2 and 4
	// processors.
	if got := s.passes.Load(); got != 8 {
		t.Errorf("streamed passes = %d, want 8", got)
	}
}

func TestFigure3ClusterWSValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation matrix")
	}
	s := NewSuite(Options{})
	v, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	checkValidation(t, v, 60)
	// Network ordering at N=4: both sides must rank the 155Mb switch (C10)
	// below the 100Mb bus (C8) for the network-bound FFT.
	get := func(cfg, w string) (float64, float64) {
		for _, r := range v.Rows {
			if r.Config == cfg && r.Workload == w {
				return r.ModelE, r.SimE
			}
		}
		t.Fatalf("missing row %s/%s", cfg, w)
		return 0, 0
	}
	m8, s8 := get("C8", "FFT")
	m10, s10 := get("C10", "FFT")
	if !(m10 < m8) || !(s10 < s8) {
		t.Errorf("switch should beat 100Mb bus for FFT: model %v vs %v, sim %v vs %v", m10, m8, s10, s8)
	}
}

func TestFigure4ClusterSMPValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation matrix")
	}
	s := NewSuite(Options{})
	v, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	checkValidation(t, v, 60)
}

func TestValidationTableRendering(t *testing.T) {
	v := Validation{Title: "test", Rows: []ValidationRow{
		{Config: "C1", Workload: "FFT", ModelE: 1, SimE: 2, DiffPct: -50},
		{Config: "C1", Workload: "LU", ModelE: 3, SimE: 2, DiffPct: 50},
	}}
	if v.MeanAbsDiff() != 50 {
		t.Errorf("MeanAbsDiff = %v", v.MeanAbsDiff())
	}
	if v.MaxAbsDiff() != 50 {
		t.Errorf("MaxAbsDiff = %v", v.MaxAbsDiff())
	}
	out := v.Table().String()
	if !strings.Contains(out, "mean |diff|") {
		t.Errorf("table missing summary: %s", out)
	}
	var empty Validation
	if empty.MeanAbsDiff() != 0 || empty.MaxAbsDiff() != 0 {
		t.Error("empty validation should have zero diffs")
	}
}

func TestMeasureSharing(t *testing.T) {
	// Two CPUs on separate nodes: CPU0 touches block 0 first (home 0),
	// CPU1 reads it (remote), CPU0 writes it, CPU1 re-reads it (coherence
	// miss).
	tr := trace.New(2)
	tr.Streams[0].AddRead(0)  // home block 0 -> node 0
	tr.Streams[1].AddRead(4)  // remote read (round-robin: after cpu0's)
	tr.Streams[0].AddWrite(8) // invalidates cpu1's copy
	tr.Streams[1].AddRead(12) // coherence miss + remote
	tr.Streams[0].AddCompute(1)

	st := MeasureSharing(tr, 1)
	// refs: cpu0 r, cpu1 r, cpu0 w, cpu1 r = 4; remote = 2 (cpu1's two);
	// coherence = 1 (cpu1's second read).
	if st.RemoteShare != 0.5 {
		t.Errorf("RemoteShare = %v, want 0.5", st.RemoteShare)
	}
	if st.CoherenceMissRate != 0.25 {
		t.Errorf("CoherenceMissRate = %v, want 0.25", st.CoherenceMissRate)
	}
}

func TestMeasureSharingDisjointPartitions(t *testing.T) {
	tr := trace.New(4)
	for cpu := 0; cpu < 4; cpu++ {
		base := uint64(cpu) * (1 << 16)
		for i := uint64(0); i < 100; i++ {
			tr.Streams[cpu].AddRead(base + i*64)
			tr.Streams[cpu].AddWrite(base + i*64)
		}
	}
	st := MeasureSharing(tr, 1)
	if st.RemoteShare != 0 || st.CoherenceMissRate != 0 {
		t.Errorf("disjoint partitions should share nothing: %+v", st)
	}
	// Grouped as one node of 4 CPUs there is no cross-machine sharing
	// either.
	if st4 := MeasureSharing(tr, 4); st4.RemoteShare != 0 {
		t.Errorf("single node should have no remote share: %+v", st4)
	}
	// Empty trace.
	if e := MeasureSharing(trace.New(1), 1); e.RemoteShare != 0 || e.CoherenceMissRate != 0 {
		t.Errorf("empty trace: %+v", e)
	}
}

func TestCase1(t *testing.T) {
	results, tab, err := Case1(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d case-1 results, want 5", len(results))
	}
	for _, r := range results {
		if r.Best.Cost > 5000 {
			t.Errorf("%s: winner over budget: %+v", r.Workload, r.Best)
		}
		// The paper: $5,000 cannot buy SMPs.
		if r.Best.Config.Kind != machine.ClusterWS {
			t.Errorf("%s: $5,000 winner is not a workstation platform: %+v", r.Workload, r.Best.Config)
		}
	}
	if !strings.Contains(tab.String(), "$5,000") {
		t.Error("case 1 table missing title")
	}
}

func TestCase2(t *testing.T) {
	results, _, err := Case2(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CaseResult{}
	for _, r := range results {
		byName[r.Workload] = r
		if r.Best.Cost > 20000 {
			t.Errorf("%s: winner over budget: %+v", r.Workload, r.Best)
		}
		if r.Feasible <= 39 {
			t.Errorf("%s: $20,000 should open more of the space than $5,000 (got %d)", r.Workload, r.Feasible)
		}
	}
	// The paper's principle: Radix (memory bound, poor locality) wants an
	// SMP once the budget allows one.
	if got := byName["Radix"].Best.Config.Kind; got != machine.SMP {
		t.Errorf("Radix $20,000 winner is %v, want an SMP", got)
	}
}

func TestCase3(t *testing.T) {
	plans, tab, err := Case3(2000, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.UpgradeCost > 2000 {
			t.Errorf("%s plan over budget: %+v", p.From.Name, p)
		}
		if p.Speedup < 1 {
			t.Errorf("upgrade slowed things down: %+v", p)
		}
		if p.NewEInstr > p.OldEInstr {
			t.Errorf("upgrade worsened E(Instr): %+v", p)
		}
	}
	if !strings.Contains(tab.String(), "Speedup") {
		t.Error("case 3 table missing speedup column")
	}
}

func TestCaseFFT4x(t *testing.T) {
	res, tab, err := CaseFFT4x(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports the Ethernet cluster ≈ 4× slower; our model agrees
	// on direction and order of magnitude (see EXPERIMENTS.md for the
	// measured factor).
	if res.Ratio < 2 {
		t.Errorf("Ethernet/ATM ratio %.2f should clearly exceed 1", res.Ratio)
	}
	if res.EthernetE <= res.ATME {
		t.Errorf("Ethernet (%v) should be slower than ATM (%v)", res.EthernetE, res.ATME)
	}
	if !strings.Contains(tab.String(), "ratio") {
		t.Error("FFT4x table missing ratio row")
	}
}

func TestPrinciplesTable(t *testing.T) {
	tab := Principles()
	if len(tab.Rows) != 5 {
		t.Fatalf("principles table has %d rows, want 5", len(tab.Rows))
	}
	out := tab.String()
	for _, want := range []string{"SMP", "fast network", "slow network"} {
		if !strings.Contains(out, want) {
			t.Errorf("principles table missing %q", want)
		}
	}
}

func TestModelVsSimSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	s := NewSuite(Options{})
	sc, err := s.ModelVsSimSpeed()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §5.3 claim: modeling is orders of magnitude cheaper.
	if sc.Ratio < 10 {
		t.Errorf("model should be ≫10× faster than simulation, got %.1fx (model %v, sim %v)",
			sc.Ratio, sc.ModelTime, sc.SimTime)
	}
}

func TestCalibrateCoherenceAdjust(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	s := NewSuite(Options{})
	// A small sweep on one cluster config keeps this test fast.
	delta, diff, err := s.CalibrateCoherenceAdjust(
		machine.WSCatalog()[1:2], []float64{0, 0.124, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if delta < 0 || delta > 0.6 {
		t.Errorf("calibrated delta %v outside swept range", delta)
	}
	if diff <= 0 || diff > 200 {
		t.Errorf("calibrated diff %v implausible", diff)
	}
}

// TestCalibrateSimulatesOnce: the calibration sweep evaluates the model
// once per delta over a single simulated side — one streamed pass per
// workload at C8's processor count, not one simulation per delta.
func TestCalibrateSimulatesOnce(t *testing.T) {
	s := NewSuite(Options{})
	if _, _, err := s.CalibrateCoherenceAdjust(machine.WSCatalog()[1:2], nil); err != nil {
		t.Fatal(err)
	}
	if got := s.sims.computes.Load(); got != 1 {
		t.Errorf("simulated sides computed = %d across 21 deltas, want 1", got)
	}
	if got, want := s.passes.Load(), int64(len(s.Workloads())); got != want {
		t.Errorf("streamed passes = %d, want %d", got, want)
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(Options{})
	set := machine.WSCatalog()[:1] // C7: 2 processors
	v1, err := s.simulated(set)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.simulated(set)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("simulated side not cached")
	}
	if got, want := s.passes.Load(), int64(len(s.Workloads())); got != want {
		t.Errorf("streamed passes = %d, want %d", got, want)
	}
	w := s.Workloads()[1] // LU
	c1, err := s.characterize(w)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.characterize(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Error("characterization not cached")
	}
}

func TestModelWorkloadConversion(t *testing.T) {
	s := NewSuite(Options{})
	c, err := s.characterize(s.Workloads()[0])
	if err != nil {
		t.Fatal(err)
	}
	wl := ModelWorkload(c)
	if err := wl.Validate(); err != nil {
		t.Fatalf("converted workload invalid: %v", err)
	}
	if wl.BytesPerItem != 64 {
		t.Errorf("line-granularity characterization should carry 64-byte items, got %v", wl.BytesPerItem)
	}
	if wl.FootprintItems != float64(c.Distinct) {
		t.Errorf("footprint not carried: %v vs %d", wl.FootprintItems, c.Distinct)
	}
}

func TestWriteReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation")
	}
	var buf strings.Builder
	if err := WriteReport(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Reproduction report", "Table 2", "Figure 2", "Figure 3", "Figure 4",
		"case studies", "Extensions", "cost of prediction", "Reproduction scope",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}
