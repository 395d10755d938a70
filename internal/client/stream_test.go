package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memhier/internal/server"
)

// newSweepServer starts a real chc-serve instance for streaming tests.
func newSweepServer(t testing.TB, cfg server.Config) *httptest.Server {
	t.Helper()
	s := server.New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func compactJSON(t *testing.T, b []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.String()
}

// TestSweepStreamMatchesPredict: every predict line a Sweep delivers is
// byte-identical (as compact JSON) to the body of the equivalent
// /v1/predict call, and budget lines carry the eq. 6 winners.
func TestSweepStreamMatchesPredict(t *testing.T) {
	ts := newSweepServer(t, server.Config{})
	c := New(ts.URL, fastOpts())
	ctx := context.Background()

	cfgs := []server.ConfigSpec{{Name: "C4"}, {Name: "C8"}}
	wls := []server.WorkloadSpec{{Name: "fft"}, {Name: "lu"}}
	req := server.SweepRequest{Configs: cfgs, Workloads: wls, Budgets: []float64{5000, 8000}}

	var lines []server.SweepLine
	res, err := c.Sweep(ctx, req, func(l server.SweepLine) error {
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	wantPoints := len(cfgs)*len(wls) + len(wls)
	if res.Points != wantPoints || res.Received != wantPoints {
		t.Fatalf("points = %d received = %d, want %d", res.Points, res.Received, wantPoints)
	}
	if res.Segments != 1 || res.Errors != 0 {
		t.Fatalf("segments = %d errors = %d, want 1/0", res.Segments, res.Errors)
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d has index %d: stream out of order", i, l.Index)
		}
	}
	// Predict points: compare against individual calls (cache-warmed by the
	// sweep, so the bytes are the very same entry).
	for ci, cfg := range cfgs {
		for wi, wl := range wls {
			line := lines[ci*len(wls)+wi]
			if line.Kind != "predict" {
				t.Fatalf("point %d kind = %q", line.Index, line.Kind)
			}
			meta, err := c.Post(ctx, "/v1/predict", server.PredictRequest{Config: cfg, Workload: wl}, nil)
			if err != nil {
				t.Fatalf("Predict %s/%s: %v", cfg.Name, wl.Name, err)
			}
			if meta.Cache != "hit" {
				t.Fatalf("predict after sweep missed the cache: %q", meta.Cache)
			}
			if got, want := string(line.Response), compactJSON(t, meta.Body); got != want {
				t.Fatalf("sweep point %s/%s diverges from predict:\nsweep:   %s\npredict: %s",
					cfg.Name, wl.Name, got, want)
			}
		}
	}
	// Budget points: one per workload, two budgets each.
	for wi, wl := range wls {
		line := lines[len(cfgs)*len(wls)+wi]
		if line.Kind != "budget" {
			t.Fatalf("point %d kind = %q, want budget", line.Index, line.Kind)
		}
		var bs server.BudgetSweepResponse
		if err := json.Unmarshal(line.Response, &bs); err != nil {
			t.Fatalf("budget line: %v", err)
		}
		// Workload carries the resolved display name (e.g. "FFT" for "fft").
		if !strings.EqualFold(bs.Workload, wl.Name) || len(bs.Points) != 2 {
			t.Fatalf("budget line = %s/%d points, want %s/2", bs.Workload, len(bs.Points), wl.Name)
		}
	}
}

// TestBatchStreamMixedPoints: an invalid batch point becomes an error
// line; the rest of the batch still answers, matching predict bytes.
func TestBatchStreamMixedPoints(t *testing.T) {
	ts := newSweepServer(t, server.Config{})
	c := New(ts.URL, fastOpts())
	ctx := context.Background()

	req := server.BatchRequest{Requests: []server.PredictRequest{
		{Config: server.ConfigSpec{Name: "C4"}, Workload: server.WorkloadSpec{Name: "fft"}},
		{Config: server.ConfigSpec{Name: "C99"}, Workload: server.WorkloadSpec{Name: "fft"}},
		{Config: server.ConfigSpec{Name: "C8"}, Workload: server.WorkloadSpec{Name: "tpcc"}, Delta: 0.124},
	}}
	var lines []server.SweepLine
	res, err := c.Batch(ctx, req, func(l server.SweepLine) error {
		lines = append(lines, l)
		return nil
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if res.Received != 3 || res.Errors != 1 {
		t.Fatalf("received = %d errors = %d, want 3/1", res.Received, res.Errors)
	}
	if lines[1].Error == nil || lines[1].Status != http.StatusBadRequest {
		t.Fatalf("invalid point line = %+v, want a 400 error line", lines[1])
	}
	for _, i := range []int{0, 2} {
		meta, err := c.Post(ctx, "/v1/predict", req.Requests[i], nil)
		if err != nil {
			t.Fatalf("Predict point %d: %v", i, err)
		}
		if got, want := string(lines[i].Response), compactJSON(t, meta.Body); got != want {
			t.Fatalf("batch point %d diverges from predict", i)
		}
	}
}

// lineLimiter passes through a fixed number of body writes (the server
// encodes one NDJSON line per write) and then fails, simulating a
// connection dying mid-stream at a line boundary.
type lineLimiter struct {
	http.ResponseWriter
	writesLeft int
}

func (l *lineLimiter) Write(b []byte) (int, error) {
	if l.writesLeft <= 0 {
		return 0, errors.New("injected mid-stream failure")
	}
	l.writesLeft--
	return l.ResponseWriter.Write(b)
}

func (l *lineLimiter) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestSweepResumesAfterTruncation: a stream cut after two lines is
// resumed with Offset at the first missing point — the tail segment
// re-requests only points 2..3 and every point is delivered exactly once.
func TestSweepResumesAfterTruncation(t *testing.T) {
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	inner := s.Handler()
	var calls atomic.Int64
	var offsets []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SweepRequest
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req)
		offsets = append(offsets, req.Offset)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if calls.Add(1) == 1 {
			inner.ServeHTTP(&lineLimiter{ResponseWriter: w, writesLeft: 2}, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, fastOpts())
	req := server.SweepRequest{
		Configs:   []server.ConfigSpec{{Name: "C4"}, {Name: "C8"}},
		Workloads: []server.WorkloadSpec{{Name: "fft"}, {Name: "lu"}},
	}
	var indices []int
	res, err := c.Sweep(context.Background(), req, func(l server.SweepLine) error {
		indices = append(indices, l.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("Sweep across truncation: %v", err)
	}
	if res.Segments != 2 {
		t.Fatalf("segments = %d, want 2", res.Segments)
	}
	if res.Received != 4 || res.Points != 4 {
		t.Fatalf("received = %d of %d, want 4 of 4", res.Received, res.Points)
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("delivery order %v: point delivered twice or skipped", indices)
		}
	}
	if len(offsets) != 2 || offsets[0] != 0 || offsets[1] != 2 {
		t.Fatalf("request offsets = %v, want [0 2]: resume must re-request only the tail", offsets)
	}
	if c.BreakerOpen() {
		t.Fatal("a resumed stream should not leave the breaker open")
	}
}

// TestSweepResumesAfterIncompleteSummary: a trailer with complete=false
// (the server's deadline) triggers an immediate tail resume without
// counting against the retry budget or the breaker.
func TestSweepResumesAfterIncompleteSummary(t *testing.T) {
	var offsets []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SweepRequest
		json.NewDecoder(r.Body).Decode(&req)
		offsets = append(offsets, req.Offset)
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		end := req.Offset + 2 // two points per segment, grid of 4
		for i := req.Offset; i < end && i < 4; i++ {
			fmt.Fprintf(w, `{"kind":"predict","index":%d,"cache":"miss","status":200,"response":{"p":%d}}`+"\n", i, i)
		}
		complete := end >= 4
		fmt.Fprintf(w, `{"kind":"summary","points":4,"complete":%v}`+"\n", complete)
	}))
	t.Cleanup(ts.Close)

	opts := fastOpts()
	opts.MaxRetries = 0 // resume must not need the retry budget
	c := New(ts.URL, opts)
	res, err := c.Sweep(context.Background(), server.SweepRequest{Workloads: []server.WorkloadSpec{{Name: "fft"}}}, nil)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if res.Segments != 2 || res.Received != 4 || res.CacheMisses != 4 {
		t.Fatalf("res = %+v, want 2 segments / 4 received / 4 misses", res)
	}
	if len(offsets) != 2 || offsets[1] != 2 {
		t.Fatalf("offsets = %v, want [0 2]", offsets)
	}
}

// TestSweepShedRetriesWithRetryAfter: a shed grid (429) is retried like
// any shed request and succeeds on the next attempt.
func TestSweepShedRetriesWithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			jsonError(w, http.StatusTooManyRequests, "overloaded", "2 grids already streaming")
			return
		}
		fmt.Fprint(w, `{"kind":"predict","index":0,"status":200,"response":{}}`+"\n")
		fmt.Fprint(w, `{"kind":"summary","points":1,"complete":true}`+"\n")
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, fastOpts())
	res, err := c.Sweep(context.Background(), server.SweepRequest{Workloads: []server.WorkloadSpec{{Name: "fft"}}}, nil)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if res.Attempts != 2 || res.Segments != 1 || res.Received != 1 {
		t.Fatalf("res = %+v, want 2 attempts / 1 segment / 1 received", res)
	}
}

// TestSweepNonRetryableStatusFails: a 400 rejection surfaces as an
// APIError without retrying.
func TestSweepNonRetryableStatusFails(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		jsonError(w, http.StatusBadRequest, "bad_request", "need at least one workload")
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, fastOpts())
	_, err := c.Sweep(context.Background(), server.SweepRequest{}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried: %d calls", calls.Load())
	}
}

// TestSweepDrainingNotRetried: a draining node's 429 ends a stream after
// one attempt, as it ends a plain call (TestDrainingNotRetried), and is
// no breaker failure: retrying it would only sleep through Retry-After
// hints from a node that is going away.
func TestSweepDrainingNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, server.CodeDraining, "server: draining: not accepting new work")
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, Options{MaxRetries: 3, FailureThreshold: 1, RetryAfterCap: 10 * time.Millisecond})
	res, err := c.Sweep(context.Background(), server.SweepRequest{Workloads: []server.WorkloadSpec{{Name: "fft"}}}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeDraining {
		t.Fatalf("error %v, want APIError with code draining", err)
	}
	if res.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("attempts=%d calls=%d, want 1 wire attempt against a draining node", res.Attempts, calls.Load())
	}
	if c.BreakerOpen() {
		t.Fatal("draining answer opened the breaker")
	}
}

// TestSweepCallbackErrorAborts: an fn error stops the stream and is
// returned without retrying.
func TestSweepCallbackErrorAborts(t *testing.T) {
	ts := newSweepServer(t, server.Config{})
	c := New(ts.URL, fastOpts())
	sentinel := errors.New("stop here")
	var calls int
	_, err := c.Sweep(context.Background(), server.SweepRequest{
		Configs:   []server.ConfigSpec{{Name: "C4"}, {Name: "C8"}},
		Workloads: []server.WorkloadSpec{{Name: "fft"}},
	}, func(server.SweepLine) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want callback error back, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after aborting", calls)
	}
}

// TestSweepStalledStreamGivesUp: a server that never emits anything is
// abandoned after MaxRetries zero-progress attempts.
func TestSweepStalledStreamGivesUp(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK) // 200 with an empty body: no lines, no summary
	}))
	t.Cleanup(ts.Close)

	opts := fastOpts()
	opts.FailureThreshold = -1 // isolate the retry budget from the breaker
	c := New(ts.URL, opts)
	_, err := c.Sweep(context.Background(), server.SweepRequest{Workloads: []server.WorkloadSpec{{Name: "fft"}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "without a summary") {
		t.Fatalf("want truncation error, got %v", err)
	}
	if want := int64(1 + 3); calls.Load() != want {
		t.Fatalf("calls = %d, want %d (1 try + MaxRetries)", calls.Load(), want)
	}
}

// TestParseRetryAfter covers both RFC 9110 forms and the clamps: a
// negative delay or a past date must not produce a negative pause, and
// an unparseable value is explicitly "no hint", never half-parsed.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"5", 5},
		{" 7 ", 7},
		{"0", 0},
		{"-5", 0},
		{"-0", 0},
		{"garbage", 0},
		{"", 0},
		{"12.5", 0}, // fractional seconds are not delay-seconds: no hint
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// HTTP-date form: a future date rounds up to whole seconds...
	future := time.Now().Add(2500 * time.Millisecond).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got < 1 || got > 4 {
		t.Errorf("parseRetryAfter(future date) = %d, want ~3", got)
	}
	// ...and a past date clamps to zero.
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("parseRetryAfter(past date) = %d, want 0", got)
	}
}

// TestDecodeAPIErrorRetryAfterHeader: the header feeds APIError through
// the clamped parser — a hostile "-5" cannot schedule an early retry.
func TestDecodeAPIErrorRetryAfterHeader(t *testing.T) {
	for hdr, want := range map[string]int{"3": 3, "-5": 0, "bogus": 0} {
		h := http.Header{}
		h.Set("Retry-After", hdr)
		if got := decodeAPIError(429, h, []byte(`{"error":"shed","code":"overloaded"}`)).RetryAfter; got != want {
			t.Errorf("Retry-After %q -> %d, want %d", hdr, got, want)
		}
	}
}
