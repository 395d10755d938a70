package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"memhier/internal/server"
)

const testGolden = "../internal/experiments/testdata/golden_artifacts.sha256"

// TestMain lets the test binary stand in for the benchmark binary when
// repro re-executes itself to time a cold reproduction.
func TestMain(m *testing.M) {
	if len(os.Args) == 4 && os.Args[1] == "-cold-repro" {
		os.Exit(coldReproChild(os.Args[3]))
	}
	os.Exit(m.Run())
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestWrongDigestFails(t *testing.T) {
	golden, err := loadGolden(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	_, _, out, err := reproOp()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArtifacts(golden, out); err != nil {
		t.Fatalf("HEAD's artifacts do not match the golden digests: %v", err)
	}
	out["figure3"] = append([]byte("x"), out["figure3"]...)
	if err := checkArtifacts(golden, out); err == nil || !strings.Contains(err.Error(), "figure3") {
		t.Fatalf("a corrupted figure3 passed: %v", err)
	}
	delete(out, "figure3")
	if err := checkArtifacts(golden, out); err == nil {
		t.Fatal("a missing artifact passed")
	}
}

func TestCorruptedHotBodyFails(t *testing.T) {
	warmBodies := [][]byte{[]byte(`{"result":1}`)}
	rq := request{path: "/v1/predict", hot: 0}
	if err := checkAnswer(rq, http.StatusOK, []byte(`{"result":1}`), warmBodies); err != nil {
		t.Fatalf("the warm-up bytes were refused: %v", err)
	}
	if err := checkAnswer(rq, http.StatusOK, []byte(`{"result":2}`), warmBodies); err == nil {
		t.Fatal("a corrupted hot body passed")
	}
	if err := checkAnswer(request{path: "/v1/predict", hot: -1}, http.StatusTooManyRequests, nil, warmBodies); err == nil {
		t.Fatal("a 429 answer passed")
	}
}

// sweepBody builds an NDJSON sweep answer with n point lines.
func sweepBody(n int, sum server.SweepSummary) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"kind":"predict","index":%d,"status":200}`+"\n", i)
	}
	line, _ := json.Marshal(sum)
	b.Write(line)
	b.WriteByte('\n')
	return []byte(b.String())
}

func TestTruncatedSweepFails(t *testing.T) {
	full := server.SweepSummary{Kind: "summary", Points: sweepPoints, Emitted: sweepPoints, Complete: true}
	if err := checkSweep(sweepBody(sweepPoints, full)); err != nil {
		t.Fatalf("a complete sweep was refused: %v", err)
	}
	cut := full
	cut.Emitted, cut.Complete = sweepPoints-3, false
	if err := checkSweep(sweepBody(sweepPoints-3, cut)); err == nil {
		t.Fatal("a sweep whose trailer says incomplete passed")
	}
	if err := checkSweep(sweepBody(sweepPoints-3, full)); err == nil {
		t.Fatal("a sweep missing point lines passed")
	}
	body := sweepBody(sweepPoints, full)
	if err := checkSweep(body[:len(body)/2]); err == nil {
		t.Fatal("a sweep without its trailer passed")
	}
}

func TestFailedCheckCountsAsFailedOp(t *testing.T) {
	var o outcome
	o.check(nil)
	o.check(fmt.Errorf("wrong output"))
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", o.attempted, o.failed)
	}
}

// runTiny runs a workload at its smallest size and checks the result line.
func runTiny(t *testing.T, workload string, seconds time.Duration, traced bool) {
	t.Helper()
	p := params{seed: 3, seconds: seconds, trace: traced, golden: testGolden}
	o, err := workloadsByName[workload](p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := assemble(workload, p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d ops failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	want := endToEnd
	if traced {
		want = perLayer
		if o.budget == nil || o.budget.Ops == 0 {
			t.Fatalf("%s: traced run has no time budget", workload)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Fatalf("%s: metric %s missing", workload, m.name)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.name, v.Value)
		}
	}
}

func TestTinyRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full reproductions")
	}
	runTiny(t, "repro", time.Nanosecond, false)
	runTiny(t, "repro", time.Nanosecond, true)
}

func TestTinySimDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulator passes")
	}
	runTiny(t, "sim-deep", time.Nanosecond, false)
	runTiny(t, "sim-deep", time.Nanosecond, true)
}

func TestTinyServe(t *testing.T) {
	runTiny(t, "serve", 300*time.Millisecond, false)
	runTiny(t, "serve", 600*time.Millisecond, true)
}
