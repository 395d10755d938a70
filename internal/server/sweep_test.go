package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
)

// readStream parses an NDJSON sweep response into its result lines and
// summary trailer.
func readStream(t *testing.T, body []byte) ([]SweepLine, SweepSummary) {
	t.Helper()
	var lines []SweepLine
	var summary SweepSummary
	sawSummary := false
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		if sawSummary {
			t.Fatal("lines after the summary trailer")
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		raw := json.RawMessage{}
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("decode line: %v", err)
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("probe line %s: %v", raw, err)
		}
		if probe.Kind == "summary" {
			if err := json.Unmarshal(raw, &summary); err != nil {
				t.Fatalf("decode summary: %v", err)
			}
			sawSummary = true
			continue
		}
		var line SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("decode line %s: %v", raw, err)
		}
		lines = append(lines, line)
	}
	if !sawSummary {
		t.Fatalf("stream has no summary trailer:\n%s", body)
	}
	return lines, summary
}

func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.Bytes()
}

// TestSweepMatchesPredict is the core contract: every predict point of a
// sweep carries exactly the bytes (modulo indentation) the equivalent
// /v1/predict request returns, and the two paths share one cache entry.
func TestSweepMatchesPredict(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	configs := []string{"C1", "C4", "C7"}
	workloads := []string{"fft", "radix"}
	req := SweepRequest{
		Workloads: []WorkloadSpec{{Name: "FFT"}, {Name: "Radix"}}, // alias spellings canonicalize
		Budgets:   []float64{5000, 20000},
	}
	for _, c := range configs {
		req.Configs = append(req.Configs, ConfigSpec{Name: c})
	}
	rec := post(t, s, "/v1/sweep", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	total := len(configs)*len(workloads) + len(workloads)
	if got := rec.Header().Get("X-Sweep-Points"); got != strconv.Itoa(total) {
		t.Errorf("X-Sweep-Points = %q, want %d", got, total)
	}
	lines, summary := readStream(t, rec.Body.Bytes())
	if len(lines) != total {
		t.Fatalf("got %d lines, want %d", len(lines), total)
	}
	if !summary.Complete || summary.Points != total || summary.Emitted != total || summary.Errors != 0 {
		t.Errorf("summary = %+v", summary)
	}
	if summary.CacheMisses != total {
		t.Errorf("cold sweep misses = %d, want %d (hits %d, dedups %d)",
			summary.CacheMisses, total, summary.CacheHits, summary.DedupWaits)
	}

	// Lines arrive in index order; each predict point byte-matches the
	// individual endpoint (the sweep populated the cache, so these are hits).
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d — stream not sequenced", i, line.Index)
		}
	}
	for ci, c := range configs {
		for wi, w := range workloads {
			assertPredictHit(t, s, PredictRequest{Config: ConfigSpec{Name: c}, Workload: WorkloadSpec{Name: w}},
				lines[ci*len(workloads)+wi])
		}
	}

	// Budget lines match a direct OptimizeBudgets call bit for bit.
	for wi, w := range workloads {
		line := lines[len(configs)*len(workloads)+wi]
		if line.Kind != "budget" || line.Status != http.StatusOK {
			t.Fatalf("budget line %d = %+v", line.Index, line)
		}
		var got BudgetSweepResponse
		if err := json.Unmarshal(line.Response, &got); err != nil {
			t.Fatal(err)
		}
		wl, err := core.PaperWorkloadByName(w)
		if err != nil {
			t.Fatal(err)
		}
		pts, stats, err := cost.OptimizeBudgets(req.Budgets, wl, cost.DefaultCatalog(), cost.DefaultSpace(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != stats || len(got.Points) != len(pts) {
			t.Fatalf("budget line stats %+v (%d points), want %+v (%d points)", got.Stats, len(got.Points), stats, len(pts))
		}
		for i := range pts {
			if got.Points[i].Budget != pts[i].Budget || !reflect.DeepEqual(got.Points[i].Best, pts[i].Best) {
				t.Errorf("%s budget %v: %+v != %+v", w, pts[i].Budget, got.Points[i], pts[i])
			}
		}
	}

	// A second identical sweep is all cache hits.
	again := post(t, s, "/v1/sweep", req)
	if again.Code != http.StatusOK {
		t.Fatalf("second sweep status = %d", again.Code)
	}
	_, sum2 := readStream(t, again.Body.Bytes())
	if sum2.CacheHits != total || sum2.CacheMisses != 0 {
		t.Errorf("warm sweep hits=%d misses=%d, want %d/0", sum2.CacheHits, sum2.CacheMisses, total)
	}

	// The request-shape corners of predict keying, as a sweep and as a
	// batch on a fresh server: a scaled catalog platform, a lower-case
	// alias, custom ws and csmp platforms, a measured workload and an
	// inline one, under a non-zero delta. Every point must be the cache
	// entry of the equivalent /v1/predict.
	inline, err := core.PaperWorkloadByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	corner := SweepRequest{
		Configs: []ConfigSpec{
			{Name: "C4", Divisor: 16},
			{Name: "c12"},
			{Kind: "ws", Machines: 4, Net: "100"},
			{Kind: "csmp", Machines: 4, Procs: 2, Net: "atm", ClockMHz: 300},
		},
		Workloads: []WorkloadSpec{{Name: "radix"}, {Name: "FFT", Measured: true}, {Inline: &inline}},
		Delta:     0.5,
	}
	var points []PredictRequest
	for _, c := range corner.Configs {
		for _, w := range corner.Workloads {
			points = append(points, PredictRequest{Config: c, Workload: w, Delta: corner.Delta})
		}
	}
	rec = post(t, s, "/v1/sweep", corner)
	sweepLines, summary := readStream(t, rec.Body.Bytes())
	if rec.Code != http.StatusOK || len(sweepLines) != len(points) || !summary.Complete || summary.Errors != 0 {
		t.Fatalf("corner sweep: status %d, %d lines, summary %+v", rec.Code, len(sweepLines), summary)
	}
	for i, pr := range points {
		assertPredictHit(t, s, pr, sweepLines[i])
	}
	fresh := New(Config{})
	defer fresh.Close()
	rec = post(t, fresh, "/v1/batch", BatchRequest{Requests: points})
	batchLines, summary := readStream(t, rec.Body.Bytes())
	if rec.Code != http.StatusOK || len(batchLines) != len(points) || !summary.Complete || summary.Errors != 0 {
		t.Fatalf("corner batch: status %d, %d lines, summary %+v", rec.Code, len(batchLines), summary)
	}
	for i, pr := range points {
		assertPredictHit(t, fresh, pr, batchLines[i])
		if bl, sl := batchLines[i], sweepLines[i]; bl.Config != sl.Config || bl.Workload != sl.Workload ||
			!bytes.Equal(bl.Response, sl.Response) {
			t.Errorf("point %d: batch line %s/%s differs from sweep line %s/%s", i, bl.Config, bl.Workload, sl.Config, sl.Workload)
		}
	}
}

// assertPredictHit checks a grid point against the equivalent /v1/predict
// request: the grid computed the point under the same key, so the request
// is a cache hit, and it carries the line's bytes modulo indentation.
func assertPredictHit(t *testing.T, s *Server, req PredictRequest, line SweepLine) {
	t.Helper()
	if line.Kind != "predict" || line.Status != http.StatusOK {
		t.Fatalf("line %d = %+v (error %+v)", line.Index, line, line.Error)
	}
	single := post(t, s, "/v1/predict", req)
	if single.Code != http.StatusOK {
		t.Fatalf("predict %+v: status %d", req, single.Code)
	}
	if got := single.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("predict %+v after the grid: X-Cache = %q, want hit (the grid must warm the predict cache)", req, got)
	}
	if want := compact(t, single.Body.Bytes()); !bytes.Equal(line.Response, want) {
		t.Errorf("grid point %d differs from /v1/predict:\ngrid:    %s\npredict: %s", line.Index, line.Response, want)
	}
}

// TestSweepOffsetResume: a sweep with Offset k returns exactly the tail of
// the full stream, byte-identical responses at the same indices.
func TestSweepOffsetResume(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := SweepRequest{
		Configs:   []ConfigSpec{{Name: "C1"}, {Name: "C4"}, {Name: "C8"}},
		Workloads: []WorkloadSpec{{Name: "fft"}, {Name: "lu"}},
		Budgets:   []float64{5000},
	}
	full := post(t, s, "/v1/sweep", req)
	if full.Code != http.StatusOK {
		t.Fatalf("status = %d", full.Code)
	}
	fullLines, fullSum := readStream(t, full.Body.Bytes())

	req.Offset = 4
	tail := post(t, s, "/v1/sweep", req)
	if tail.Code != http.StatusOK {
		t.Fatalf("tail status = %d", tail.Code)
	}
	tailLines, tailSum := readStream(t, tail.Body.Bytes())
	if want := fullSum.Points - req.Offset; len(tailLines) != want {
		t.Fatalf("tail has %d lines, want %d", len(tailLines), want)
	}
	if !tailSum.Complete || tailSum.Points != fullSum.Points || tailSum.Emitted != len(tailLines) {
		t.Errorf("tail summary = %+v", tailSum)
	}
	for i, line := range tailLines {
		want := fullLines[req.Offset+i]
		if line.Index != want.Index || line.Kind != want.Kind || line.Status != want.Status {
			t.Fatalf("tail line %d = %+v, want frame of %+v", i, line, want)
		}
		if !bytes.Equal(line.Response, want.Response) {
			t.Errorf("tail index %d response differs from full stream", line.Index)
		}
	}

	// Offset == total: no points, just a complete summary.
	req.Offset = fullSum.Points
	empty := post(t, s, "/v1/sweep", req)
	emptyLines, emptySum := readStream(t, empty.Body.Bytes())
	if len(emptyLines) != 0 || !emptySum.Complete || emptySum.Emitted != 0 {
		t.Errorf("offset=total: lines=%d summary=%+v", len(emptyLines), emptySum)
	}
}

func TestSweepShedsBeyondConcurrency(t *testing.T) {
	s := New(Config{SweepConcurrency: 1, SweepWorkers: 1})
	defer s.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	real := s.evaluate
	s.evaluate = func(cfg machine.Config, wl core.Workload, opts core.Options) (core.Result, error) {
		entered <- struct{}{}
		<-release
		return real(cfg, wl, opts)
	}

	req := SweepRequest{Configs: []ConfigSpec{{Name: "C4"}}, Workloads: []WorkloadSpec{{Name: "fft"}}}
	done := make(chan *SweepSummary, 1)
	go func() {
		rec := post(t, s, "/v1/sweep", req)
		if rec.Code != http.StatusOK {
			done <- nil
			return
		}
		_, sum := readStream(t, rec.Body.Bytes())
		done <- &sum
	}()
	<-entered // the first sweep holds the only token

	shed := post(t, s, "/v1/sweep", SweepRequest{Configs: []ConfigSpec{{Name: "C1"}}, Workloads: []WorkloadSpec{{Name: "lu"}}})
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("second sweep status = %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Error("shed sweep missing Retry-After")
	}
	if resp := decodeBody[ErrorResponse](t, shed); resp.Code != CodeOverloaded || resp.RetryAfterSeconds < 1 {
		t.Errorf("shed body = %+v", resp)
	}

	close(release)
	if sum := <-done; sum == nil || !sum.Complete {
		t.Fatalf("first sweep did not complete: %+v", sum)
	}

	// Token released: the next sweep is admitted.
	after := post(t, s, "/v1/sweep", req)
	if after.Code != http.StatusOK {
		t.Errorf("post-release sweep status = %d", after.Code)
	}
}

func TestSweepDrainingRejected(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.BeginDrain()
	rec := post(t, s, "/v1/sweep", SweepRequest{Configs: []ConfigSpec{{Name: "C4"}}, Workloads: []WorkloadSpec{{Name: "fft"}}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("draining sweep status = %d, want 429", rec.Code)
	}
	if resp := decodeBody[ErrorResponse](t, rec); resp.Code != CodeDraining {
		t.Errorf("code = %q, want %q", resp.Code, CodeDraining)
	}
	if rec = post(t, s, "/v1/batch", BatchRequest{Requests: []PredictRequest{{Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"}}}}); rec.Code != http.StatusTooManyRequests {
		t.Errorf("draining batch status = %d, want 429", rec.Code)
	}
}

func TestSweepDeadlineIncompleteSummary(t *testing.T) {
	s := New(Config{SweepTimeout: 30 * time.Millisecond, SweepWorkers: 1})
	defer s.Close()
	release := make(chan struct{})
	var once bool
	real := s.evaluate
	s.evaluate = func(cfg machine.Config, wl core.Workload, opts core.Options) (core.Result, error) {
		if !once {
			once = true
			<-release
		}
		return real(cfg, wl, opts)
	}
	defer close(release)

	rec := post(t, s, "/v1/sweep", SweepRequest{
		Configs:   []ConfigSpec{{Name: "C1"}, {Name: "C4"}},
		Workloads: []WorkloadSpec{{Name: "fft"}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (stream already started before the deadline?)", rec.Code)
	}
	lines, sum := readStream(t, rec.Body.Bytes())
	if sum.Complete {
		t.Fatalf("stalled sweep reported complete: %+v (lines %d)", sum, len(lines))
	}
	if sum.Points != 2 || sum.Emitted != len(lines) {
		t.Errorf("summary = %+v with %d lines", sum, len(lines))
	}
}

func TestSweepBadRequests(t *testing.T) {
	s := New(Config{MaxSweepPoints: 4})
	defer s.Close()
	cases := []struct {
		name string
		req  SweepRequest
	}{
		{"no workloads", SweepRequest{Configs: []ConfigSpec{{Name: "C4"}}}},
		{"no configs or budgets", SweepRequest{Workloads: []WorkloadSpec{{Name: "fft"}}}},
		{"negative budget", SweepRequest{Workloads: []WorkloadSpec{{Name: "fft"}}, Budgets: []float64{-5}}},
		{"bad config", SweepRequest{Configs: []ConfigSpec{{Name: "C99"}}, Workloads: []WorkloadSpec{{Name: "fft"}}}},
		{"bad workload", SweepRequest{Configs: []ConfigSpec{{Name: "C4"}}, Workloads: []WorkloadSpec{{Name: "no-such"}}}},
		{"too many points", SweepRequest{
			Configs:   []ConfigSpec{{Name: "C1"}, {Name: "C2"}, {Name: "C3"}},
			Workloads: []WorkloadSpec{{Name: "fft"}, {Name: "lu"}}}},
		{"offset out of range", SweepRequest{
			Configs: []ConfigSpec{{Name: "C4"}}, Workloads: []WorkloadSpec{{Name: "fft"}}, Offset: 2}},
	}
	for _, tc := range cases {
		rec := post(t, s, "/v1/sweep", tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
	if rec := post(t, s, "/v1/batch", BatchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", rec.Code)
	}
	// The removed "brute" option is an unknown field like any other.
	rec := postRaw(t, s, httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"workloads":[{"name":"lu"}],"budgets":[5000],"brute":true}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("brute body: status = %d, want 400", rec.Code)
	}
	// GET is rejected like every API endpoint.
	rec = postRaw(t, s, httptest.NewRequest(http.MethodGet, "/v1/sweep", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET sweep status = %d, want 405", rec.Code)
	}
}

// TestSweepInfeasibleBudget: a budget no configuration fits becomes a 422
// "infeasible" error line; the predict points still stream normally.
func TestSweepInfeasibleBudget(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := post(t, s, "/v1/sweep", SweepRequest{
		Configs:   []ConfigSpec{{Name: "C4"}},
		Workloads: []WorkloadSpec{{Name: "fft"}},
		Budgets:   []float64{1},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	lines, sum := readStream(t, rec.Body.Bytes())
	if len(lines) != 2 || sum.Errors != 1 || !sum.Complete {
		t.Fatalf("lines=%d summary=%+v", len(lines), sum)
	}
	if lines[0].Kind != "predict" || lines[0].Error != nil {
		t.Errorf("predict line = %+v", lines[0])
	}
	budget := lines[1]
	if budget.Kind != "budget" || budget.Status != http.StatusUnprocessableEntity ||
		budget.Error == nil || budget.Error.Code != CodeInfeasible {
		t.Errorf("budget line = %+v (error %+v)", budget, budget.Error)
	}
}

// TestBatchMixedPoints: invalid batch points become per-line errors while
// the valid points still answer, byte-identical to /v1/predict.
func TestBatchMixedPoints(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := post(t, s, "/v1/batch", BatchRequest{Requests: []PredictRequest{
		{Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"}},
		{Config: ConfigSpec{Name: "C99"}, Workload: WorkloadSpec{Name: "fft"}},
		{Config: ConfigSpec{Name: "C8"}, Workload: WorkloadSpec{Name: "tpcc"}, Delta: 0.124},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	lines, sum := readStream(t, rec.Body.Bytes())
	if len(lines) != 3 || sum.Errors != 1 || !sum.Complete {
		t.Fatalf("lines=%d summary=%+v", len(lines), sum)
	}
	if lines[0].Error != nil || lines[2].Error != nil {
		t.Fatalf("valid points errored: %+v / %+v", lines[0].Error, lines[2].Error)
	}
	if lines[1].Status != http.StatusBadRequest || lines[1].Error == nil || lines[1].Error.Code != CodeBadRequest {
		t.Errorf("invalid point line = %+v (error %+v)", lines[1], lines[1].Error)
	}
	for i, pr := range []PredictRequest{
		{Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"}},
		{},
		{Config: ConfigSpec{Name: "C8"}, Workload: WorkloadSpec{Name: "tpcc"}, Delta: 0.124},
	} {
		if i == 1 {
			continue
		}
		single := post(t, s, "/v1/predict", pr)
		if single.Code != http.StatusOK || single.Header().Get("X-Cache") != "hit" {
			t.Fatalf("predict %d after batch: status=%d cache=%q", i, single.Code, single.Header().Get("X-Cache"))
		}
		if want := compact(t, single.Body.Bytes()); !bytes.Equal([]byte(lines[i].Response), want) {
			t.Errorf("batch point %d differs from /v1/predict", i)
		}
	}
}

// postRaw serves an arbitrary request against the handler.
func postRaw(t *testing.T, s *Server, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}
