package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/queueing"
	"memhier/internal/sim/backend"
)

// post fires one request at the in-process handler and returns the recorder.
func post(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestPredictGolden(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config:   ConfigSpec{Name: "C4"},
		Workload: WorkloadSpec{Name: "FFT"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[PredictResponse](t, rec)

	cfg, err := machine.ByName("C4")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := core.PaperWorkloadByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Evaluate(cfg, wl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.EInstr != want.EInstr || resp.Result.T != want.T {
		t.Errorf("result = {T:%v E:%v}, want {T:%v E:%v}",
			resp.Result.T, resp.Result.EInstr, want.T, want.EInstr)
	}

	// The Text field must be byte-identical to what `chc model`
	// prints: both sides render through core.RenderResult.
	var cli bytes.Buffer
	core.RenderResult(&cli, wl, want)
	if resp.Text != cli.String() {
		t.Errorf("predict text diverges from CLI output:\napi:\n%s\ncli:\n%s", resp.Text, cli.String())
	}
}

func TestPredictCacheHit(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	req := PredictRequest{Config: ConfigSpec{Name: "C8"}, Workload: WorkloadSpec{Name: "lu"}}
	first := post(t, s, "/v1/predict", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first status = %d, body %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}

	// Alias spellings must canonicalize to the same key.
	second := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "c8"}, Workload: WorkloadSpec{Name: "LU"},
	})
	if second.Code != http.StatusOK {
		t.Fatalf("second status = %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from the miss that populated it")
	}
	if s.metrics.CacheHits.Value() != 1 || s.metrics.CacheMisses.Value() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1",
			s.metrics.CacheHits.Value(), s.metrics.CacheMisses.Value())
	}
}

func TestPredictConcurrentDedup(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	const clients = 8
	var computations atomic.Int64
	arrived := make(chan struct{}, clients)
	release := make(chan struct{})
	real := s.evaluate
	s.evaluate = func(cfg machine.Config, wl core.Workload, opts core.Options) (core.Result, error) {
		computations.Add(1)
		<-release // hold the leader until every client has sent its request
		return real(cfg, wl, opts)
	}

	var wg sync.WaitGroup
	codes := make([]int, clients)
	caches := make([]string, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			rec := post(t, s, "/v1/predict", PredictRequest{
				Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
			})
			codes[i] = rec.Code
			caches[i] = rec.Header().Get("X-Cache")
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-arrived
	}
	// All clients are at least at the door; give the stragglers a moment to
	// reach the flight table, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("computations = %d, want exactly 1 for %d identical requests", n, clients)
	}
	var misses, shared int
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d status = %d", i, codes[i])
		}
		switch caches[i] {
		case "miss":
			misses++
		case "dedup":
			shared++
		case "hit": // a client that arrived after the flight finished
		default:
			t.Errorf("client %d X-Cache = %q", i, caches[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs", i)
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if shared == 0 {
		t.Error("no client reported X-Cache: dedup")
	}
}

func fakeRunResult() backend.RunResult {
	res := backend.RunResult{
		Config: "C4", WallCycles: 1e6, Instructions: 5e5, MemoryRefs: 2e5,
		EInstr: 2.0, Seconds: 0.005, AvgT: 3.5, Barriers: 10,
		CoherenceShare: 0.03, NetUtilization: 0.4,
	}
	res.ClassShare[backend.ClassCacheHit] = 0.95
	res.ClassShare[backend.ClassDisk] = 0.01
	return res
}

func TestValidateEndpoint(t *testing.T) {
	s := New(Config{SimWorkers: 2})
	defer s.Close()
	s.simulate = func(cfg machine.Config, kernel string) (backend.RunResult, error) {
		if kernel != "fft" {
			t.Errorf("kernel = %q, want canonicalized fft", kernel)
		}
		if cfg.CacheBytes*16 != 512<<10 { // C4's 512KB cache divided by 16
			t.Errorf("cache = %d, want scaled-down C4", cfg.CacheBytes)
		}
		return fakeRunResult(), nil
	}

	rec := post(t, s, "/v1/validate", ValidateRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: "FFT",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ValidateResponse](t, rec)
	if resp.EInstr != 2.0 || resp.Workload != "fft" || resp.Barriers != 10 {
		t.Errorf("response = %+v", resp)
	}
	if resp.ClassShare[backend.ClassCacheHit.String()] != 0.95 {
		t.Errorf("class share = %v", resp.ClassShare)
	}

	// A repeat must be served from cache without re-simulating.
	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		t.Error("simulate called on what should be a cache hit")
		return backend.RunResult{}, nil
	}
	again := post(t, s, "/v1/validate", ValidateRequest{
		Config: ConfigSpec{Name: "c4"}, Workload: "fft",
	})
	if again.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", again.Header().Get("X-Cache"))
	}
	if !bytes.Equal(rec.Body.Bytes(), again.Body.Bytes()) {
		t.Error("cached validate body differs")
	}
}

func TestValidateShedsAtSaturation(t *testing.T) {
	s := New(Config{SimWorkers: 1, SimQueueDepth: -1, RetryAfter: 7 * time.Second})
	defer s.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		started <- struct{}{}
		<-block
		return fakeRunResult(), nil
	}

	// Occupy the single worker (queue depth 0, so the pool is now full).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := post(t, s, "/v1/validate", ValidateRequest{
			Config: ConfigSpec{Name: "C4"}, Workload: "fft",
		})
		if rec.Code != http.StatusOK {
			t.Errorf("occupying request status = %d", rec.Code)
		}
	}()
	<-started

	// A different request (different key: no dedup) must be shed.
	rec := post(t, s, "/v1/validate", ValidateRequest{
		Config: ConfigSpec{Name: "C5"}, Workload: "lu",
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	resp := decodeBody[ErrorResponse](t, rec)
	if resp.RetryAfterSeconds != 7 {
		t.Errorf("retry_after_seconds = %d, want 7", resp.RetryAfterSeconds)
	}
	if s.metrics.Shed.Value() != 1 {
		t.Errorf("shed counter = %d, want 1", s.metrics.Shed.Value())
	}

	close(block)
	wg.Wait()
}

func TestPredictSaturationMapsTo422(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.evaluate = func(machine.Config, core.Workload, core.Options) (core.Result, error) {
		err := &queueing.SaturationError{Rho: 1.25, MaxRho: 0.95, Tau: 4, Lambda: 0.3}
		return core.Result{}, fmt.Errorf("core: solving model: %w", err)
	}

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C1"}, Workload: WorkloadSpec{Name: "tpcc"},
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ErrorResponse](t, rec)
	if resp.Rho != 1.25 {
		t.Errorf("rho = %v, want 1.25", resp.Rho)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"method", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			return rec
		}, http.StatusMethodNotAllowed},
		{"malformed json", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{nope"))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			return rec
		}, http.StatusBadRequest},
		{"unknown config", func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/predict", PredictRequest{
				Config: ConfigSpec{Name: "C99"}, Workload: WorkloadSpec{Name: "fft"},
			})
		}, http.StatusBadRequest},
		{"unknown workload", func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/predict", PredictRequest{
				Config: ConfigSpec{Name: "C1"}, Workload: WorkloadSpec{Name: "quicksort"},
			})
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict",
				strings.NewReader(`{"config":{"name":"C1"},"workload":{"name":"fft"},"detla":1}`))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			return rec
		}, http.StatusBadRequest},
		{"missing budget", func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/optimize", OptimizeRequest{Workload: WorkloadSpec{Name: "fft"}})
		}, http.StatusBadRequest},
		{"bad divisor", func() *httptest.ResponseRecorder {
			return post(t, s, "/v1/validate", ValidateRequest{
				Config: ConfigSpec{Name: "C1"}, Workload: "fft", Divisor: -3,
			})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := tc.do()
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d; body %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		if tc.want != http.StatusMethodNotAllowed {
			resp := decodeBody[ErrorResponse](t, rec)
			if resp.Error == "" {
				t.Errorf("%s: empty error body", tc.name)
			}
		}
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	rec := post(t, s, "/v1/optimize", OptimizeRequest{
		Budget: 5000, Workload: WorkloadSpec{Name: "fft"}, Top: 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[OptimizeResponse](t, rec)

	wl, err := core.PaperWorkloadByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	best, all, err := cost.Optimize(5000, wl, cost.DefaultCatalog(), cost.DefaultSpace(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Best.Config, best.Config) || resp.Best.EInstr != best.EInstr {
		t.Errorf("best = %+v, want %+v", resp.Best, best)
	}
	if resp.Feasible != len(all) {
		t.Errorf("feasible = %d, want %d", resp.Feasible, len(all))
	}
	if len(resp.Top) != 3 {
		t.Errorf("top has %d entries, want 3", len(resp.Top))
	}
	if resp.Principle == "" {
		t.Error("missing principle classification")
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	rec := post(t, s, "/v1/advise", AdviseRequest{
		Config: ConfigSpec{Name: "C1"}, Budget: 3000, Workload: WorkloadSpec{Name: "tpcc"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AdviseResponse](t, rec)
	if resp.Plan.From.Name == "" || resp.Plan.To.Name == "" {
		t.Errorf("incomplete plan: %+v", resp.Plan)
	}
	if resp.Advice == "" {
		t.Error("missing advice text")
	}
}

func TestFitEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	truth := locality.Params{Alpha: 1.8, Beta: 700}
	xs := []float64{0, 250, 1000, 4000, 16000, 64000, 256000}
	ps := make([]float64, len(xs))
	for i, x := range xs {
		ps[i] = truth.CDF(x)
	}
	rec := post(t, s, "/v1/fit", FitRequest{Xs: xs, Ps: ps, Gamma: 0.3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[FitResponse](t, rec)
	if d := resp.Params.Alpha - truth.Alpha; d > 1e-6 || d < -1e-6 {
		t.Errorf("alpha = %v, want %v", resp.Params.Alpha, truth.Alpha)
	}
	if resp.Params.Gamma != 0.3 {
		t.Errorf("gamma = %v, want the request's 0.3", resp.Params.Gamma)
	}
	if resp.Stats.RMSE > 1e-9 {
		t.Errorf("rmse = %v on noiseless points", resp.Stats.RMSE)
	}
}

func TestOperationalEndpoints(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d", rec.Code)
	}

	post(t, s, "/v1/predict", PredictRequest{Config: ConfigSpec{Name: "C2"}, Workload: WorkloadSpec{Name: "radix"}})
	rec := get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	snap := decodeBody[map[string]any](t, rec)
	for _, key := range []string{"requests", "cache_hits", "cache_misses", "shed", "queue_depth", "endpoints"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	eps, _ := snap["endpoints"].(map[string]any)
	pred, _ := eps["predict"].(map[string]any)
	if pred == nil || pred["requests"].(float64) < 1 {
		t.Errorf("predict endpoint metrics = %v", pred)
	}

	s.BeginDrain()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (process is alive)", rec.Code)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{SimWorkers: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		close(started)
		<-block
		return fakeRunResult(), nil
	}

	ts := httptest.NewServer(s.Handler())

	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/validate", "application/json",
			strings.NewReader(`{"config":{"name":"C4"},"workload":"fft"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b}
	}()
	<-started

	// Drain: stop advertising readiness, then release the simulation and
	// shut down; the in-flight request must complete with its real result.
	s.BeginDrain()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(block)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	s.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, body %s", res.status, res.body)
	}
	var v ValidateResponse
	if err := json.Unmarshal(res.body, &v); err != nil {
		t.Fatal(err)
	}
	if v.EInstr != 2.0 {
		t.Errorf("drained response EInstr = %v, want the simulation's 2.0", v.EInstr)
	}

	// New simulation work after drain is refused, not queued.
	if err := s.pool.do(context.Background(), func() {}); err != ErrShuttingDown {
		t.Errorf("pool.do after shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestInlineAndMeasuredWorkloads(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	wl, err := core.PaperWorkloadByName("edge")
	if err != nil {
		t.Fatal(err)
	}
	inline := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Inline: &wl},
	})
	if inline.Code != http.StatusOK {
		t.Fatalf("inline status = %d, body %s", inline.Code, inline.Body.String())
	}
	named := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "edge"},
	})
	ir := decodeBody[PredictResponse](t, inline)
	nr := decodeBody[PredictResponse](t, named)
	if ir.Result.EInstr != nr.Result.EInstr {
		t.Errorf("inline E=%v != named E=%v for identical parameters", ir.Result.EInstr, nr.Result.EInstr)
	}

	if testing.Short() {
		t.Skip("measured characterization in -short mode")
	}
	measured := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft", Measured: true},
	})
	if measured.Code != http.StatusOK {
		t.Fatalf("measured status = %d, body %s", measured.Code, measured.Body.String())
	}
	mr := decodeBody[PredictResponse](t, measured)
	if mr.Workload.Name == "" || mr.Result.EInstr <= 0 {
		t.Errorf("measured response = %+v", mr.Result)
	}
}

func TestCustomConfigPredict(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config:   ConfigSpec{Kind: "csmp", Machines: 4, Procs: 2, Net: "atm"},
		Workload: WorkloadSpec{Name: "radix"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[PredictResponse](t, rec)
	if resp.Result.EInstr <= 0 {
		t.Errorf("E(Instr) = %v", resp.Result.EInstr)
	}
}
