package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memhier/internal/core"
	"memhier/internal/faults"
	"memhier/internal/machine"
	"memhier/internal/queueing"
	"memhier/internal/sim/backend"
)

// hookFunc adapts a function to faults.Hook for targeted injection.
type hookFunc func(site faults.Site, endpoint string) error

func (f hookFunc) Inject(site faults.Site, endpoint string) error { return f(site, endpoint) }

// checkErrorContract asserts the invariants every non-2xx response must
// satisfy: JSON content type, a machine-readable code, and the request ID
// echoed in both header and body. Returns the decoded body.
func checkErrorContract(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, wantCode string) ErrorResponse {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status = %d, want %d; body %s", rec.Code, wantStatus, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	resp := decodeBody[ErrorResponse](t, rec)
	if resp.Code != wantCode {
		t.Errorf("code = %q, want %q (error: %s)", resp.Code, wantCode, resp.Error)
	}
	headerID := rec.Header().Get("X-Request-ID")
	if headerID == "" {
		t.Error("response missing X-Request-ID header")
	}
	if resp.RequestID != headerID {
		t.Errorf("body request_id = %q, header = %q", resp.RequestID, headerID)
	}
	return resp
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.evaluate = func(machine.Config, core.Workload, core.Options) (core.Result, error) {
		panic("synthetic handler crash")
	}

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	resp := checkErrorContract(t, rec, http.StatusInternalServerError, CodePanic)
	if !strings.Contains(resp.Error, "panicked") {
		t.Errorf("error message %q does not mention the panic", resp.Error)
	}
	if got := s.metrics.Panics.Value(); got != 1 {
		t.Errorf("panics metric = %d, want 1", got)
	}

	// The server keeps serving after a recovered panic.
	s.evaluate = core.Evaluate
	if rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	}); rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: status = %d, body %s", rec.Code, rec.Body.String())
	}
}

// TestValidatePanicRecovery: a simulation panics on a pool worker, not on
// the goroutine whose recover guards the computation; it must still come
// back as a 500 with code panic, and the pool's one worker must survive to
// serve the next request.
func TestValidatePanicRecovery(t *testing.T) {
	s := New(Config{SimWorkers: 1})
	defer s.Close()
	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		panic("synthetic simulation crash")
	}

	rec := post(t, s, "/v1/validate", ValidateRequest{Config: ConfigSpec{Name: "C4"}, Workload: "fft"})
	resp := checkErrorContract(t, rec, http.StatusInternalServerError, CodePanic)
	if !strings.Contains(resp.Error, "panicked") {
		t.Errorf("error message %q does not mention the panic", resp.Error)
	}
	if got := s.metrics.Panics.Value(); got != 1 {
		t.Errorf("panics metric = %d, want 1", got)
	}

	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		return fakeRunResult(), nil
	}
	if rec := post(t, s, "/v1/validate", ValidateRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: "fft",
	}); rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if d := s.pool.depth(); d != 0 {
		t.Errorf("pool depth = %d after both jobs finished, want 0", d)
	}
}

func TestInjectedPanicRecovered(t *testing.T) {
	s := New(Config{Faults: hookFunc(func(site faults.Site, endpoint string) error {
		if site == faults.SiteEntry {
			panic(faults.InjectedPanic{Endpoint: endpoint})
		}
		return nil
	})})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	checkErrorContract(t, rec, http.StatusInternalServerError, CodePanic)
	if got := s.metrics.Panics.Value(); got != 1 {
		t.Errorf("panics metric = %d, want 1", got)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	t.Run("client ID echoed", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		req.Header.Set("X-Request-ID", "trace-abc-123")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Request-ID"); got != "trace-abc-123" {
			t.Errorf("echoed ID = %q, want trace-abc-123", got)
		}
	})

	t.Run("missing ID generated", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Header().Get("X-Request-ID") == "" {
			t.Error("no X-Request-ID generated")
		}
	})

	t.Run("invalid ID replaced", func(t *testing.T) {
		for _, bad := range []string{strings.Repeat("x", 200), "has space", "ctrl\x01char"} {
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			req.Header.Set("X-Request-ID", bad)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if got := rec.Header().Get("X-Request-ID"); got == bad || got == "" {
				t.Errorf("invalid ID %q: response carries %q, want a fresh ID", bad, got)
			}
		}
	})

	t.Run("error body carries the ID", func(t *testing.T) {
		b, _ := json.Marshal(PredictRequest{Config: ConfigSpec{Name: "no-such"}, Workload: WorkloadSpec{Name: "fft"}})
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(b)))
		req.Header.Set("X-Request-ID", "err-trace-9")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		resp := checkErrorContract(t, rec, http.StatusBadRequest, CodeBadRequest)
		if resp.RequestID != "err-trace-9" {
			t.Errorf("error body request_id = %q, want err-trace-9", resp.RequestID)
		}
	})
}

func TestRouteDeadlineEnforced(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{RequestTimeout: 50 * time.Millisecond})
	defer s.Close()
	defer close(release)
	s.evaluate = func(machine.Config, core.Workload, core.Options) (core.Result, error) {
		<-release // stalled computation: never finishes within the deadline
		return core.Result{}, errors.New("released")
	}

	start := time.Now()
	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	checkErrorContract(t, rec, http.StatusServiceUnavailable, CodeDeadline)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
	if got := s.metrics.Timeouts.Value(); got != 1 {
		t.Errorf("timeouts metric = %d, want 1", got)
	}
}

// TestValidateDeadlineStillCaches: a /v1/validate requester that reaches
// its deadline gets a 503, but the simulation it started runs to
// completion and is cached, so the next identical request is a hit and
// the platform is simulated exactly once.
func TestValidateDeadlineStillCaches(t *testing.T) {
	s := New(Config{SimTimeout: 50 * time.Millisecond})
	defer s.Close()
	release := make(chan struct{})
	var simulations atomic.Int64
	s.simulate = func(machine.Config, string) (backend.RunResult, error) {
		simulations.Add(1)
		<-release // outlasts the requester's deadline
		return fakeRunResult(), nil
	}
	req := ValidateRequest{Config: ConfigSpec{Name: "C4"}, Workload: "fft"}

	checkErrorContract(t, post(t, s, "/v1/validate", req), http.StatusServiceUnavailable, CodeDeadline)
	close(release)
	for deadline := time.Now().Add(5 * time.Second); s.cache.len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the simulation whose requester timed out never entered the cache")
		}
	}

	rec := post(t, s, "/v1/validate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", got)
	}
	if n := simulations.Load(); n != 1 {
		t.Errorf("simulate ran %d times, want 1", n)
	}
}

func TestEntryFaultMapsToTransient503(t *testing.T) {
	s := New(Config{Faults: hookFunc(func(site faults.Site, endpoint string) error {
		if site == faults.SiteEntry {
			return fmt.Errorf("server: injected entry fault: %w", faults.ErrInjected)
		}
		return nil
	})})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	checkErrorContract(t, rec, http.StatusServiceUnavailable, CodeTransient)
}

func TestComputeFaultMapsToTransient503(t *testing.T) {
	s := New(Config{Faults: hookFunc(func(site faults.Site, endpoint string) error {
		if site == faults.SiteCompute {
			return fmt.Errorf("server: injected compute fault: %w", faults.ErrInjected)
		}
		return nil
	})})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	checkErrorContract(t, rec, http.StatusServiceUnavailable, CodeTransient)

	// Failed flights must not poison the cache: the same request succeeds
	// once injection stops.
	s.faults = nil
	rec = post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-fault retry: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-fault retry X-Cache = %q, want miss (error was not cached)", got)
	}
}

func TestInjectedSaturationMapsTo422(t *testing.T) {
	s := New(Config{Faults: hookFunc(func(site faults.Site, endpoint string) error {
		if site == faults.SiteCompute {
			return fmt.Errorf("server: injected saturation: %w",
				queueing.NewSaturationError(0.9995, queueing.DefaultMaxRho, 4, 0.2499, true))
		}
		return nil
	})})
	defer s.Close()

	rec := post(t, s, "/v1/predict", PredictRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"},
	})
	resp := checkErrorContract(t, rec, http.StatusUnprocessableEntity, CodeSaturated)
	if resp.Rho <= queueing.DefaultMaxRho || resp.Rho >= 1 {
		t.Errorf("rho = %v, want in (%v, 1)", resp.Rho, queueing.DefaultMaxRho)
	}
}

func TestNotFoundIsJSON(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	req := httptest.NewRequest(http.MethodGet, "/v2/nonsense", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	resp := checkErrorContract(t, rec, http.StatusNotFound, CodeNotFound)
	if !strings.Contains(resp.Error, "/v2/nonsense") {
		t.Errorf("404 message %q does not name the path", resp.Error)
	}
}

func TestMethodNotAllowedIsJSON(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	checkErrorContract(t, rec, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	if got := rec.Header().Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
}

func TestReadyzDrainingIsJSON(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.BeginDrain()

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	checkErrorContract(t, rec, http.StatusServiceUnavailable, CodeDraining)
}

func TestShedResponseContract(t *testing.T) {
	// One worker, zero queue: a second concurrent validate is shed. Easier:
	// drain mode makes the pool reject immediately with ErrShuttingDown.
	s := New(Config{SimWorkers: 1, SimQueueDepth: 0})
	s.pool.shutdown() // pool rejects everything with ErrShuttingDown → 429

	rec := post(t, s, "/v1/validate", ValidateRequest{
		Config: ConfigSpec{Name: "C4"}, Workload: "fft", Divisor: 64,
	})
	resp := checkErrorContract(t, rec, http.StatusTooManyRequests, CodeDraining)
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if resp.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", resp.RetryAfterSeconds)
	}
}

func TestCachedResponsesByteIdenticalUnderEntryLatency(t *testing.T) {
	// Entry-site latency faults must not perturb response bytes: the
	// cached body is written verbatim regardless of injection.
	inj := faults.NewInjector(faults.Profile{Name: "lat", LatencyProb: 1, Latency: time.Millisecond}, 1)
	s := New(Config{Faults: inj})
	defer s.Close()

	req := PredictRequest{Config: ConfigSpec{Name: "C7"}, Workload: WorkloadSpec{Name: "radix"}}
	first := post(t, s, "/v1/predict", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body.String())
	}
	for i := 0; i < 3; i++ {
		rec := post(t, s, "/v1/predict", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != first.Body.String() {
			t.Fatalf("repeat %d body differs from first under latency faults", i)
		}
	}
	if inj.Total() == 0 {
		t.Error("latency injector never fired")
	}
}
