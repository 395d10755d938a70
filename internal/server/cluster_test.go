package server

// Tests for the server side of cluster mode: the PeerForwarder seam in
// the cached-compute path (cluster.go), exercised with a stub forwarder so placement
// and transport outcomes are scripted. End-to-end multi-node behavior —
// real rings, real peer clients, byte-identity across entry nodes —
// lives in internal/cluster's tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/sim/backend"
)

// stubForwarder scripts placement and forwarding.
type stubForwarder struct {
	self    string
	place   func(key string) (string, []string, bool)
	forward func(ctx context.Context, peer, path, requestID string, body []byte) (ForwardResult, error)

	mu       sync.Mutex
	placed   int      // guarded by mu
	forwards []string // guarded by mu; "peer path" per Forward call
}

func (f *stubForwarder) Self() string { return f.self }

func (f *stubForwarder) Place(key string) (string, []string, bool) {
	f.mu.Lock()
	f.placed++
	f.mu.Unlock()
	return f.place(key)
}

func (f *stubForwarder) Forward(ctx context.Context, peer, path, requestID string, body []byte) (ForwardResult, error) {
	f.mu.Lock()
	f.forwards = append(f.forwards, peer+" "+path)
	f.mu.Unlock()
	return f.forward(ctx, peer, path, requestID, body)
}

func (f *stubForwarder) Stats() map[string]any { return map[string]any{"self": f.self} }

func (f *stubForwarder) forwardCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.forwards)
}

// postForwarded is post with the peer-forwarding hop marker set.
func postForwarded(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set(ForwardedHeader, "origin-node")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

var predictReq = PredictRequest{Config: ConfigSpec{Name: "C4"}, Workload: WorkloadSpec{Name: "fft"}}

// TestForwardMissRelaysOwnerBytes: a miss on a peer-owned key is proxied
// to the owner and the owner's bytes come back verbatim — the same body
// a standalone server computes — tagged with the owner's X-Cache verdict
// and the placement headers. The relayed answer enters the local cache,
// so the key is answered locally (hit) from then on.
func TestForwardMissRelaysOwnerBytes(t *testing.T) {
	owner := New(Config{})
	defer owner.Close()
	fwd := &stubForwarder{
		self:  "entry",
		place: func(string) (string, []string, bool) { return "owner", []string{"owner"}, false },
	}
	fwd.forward = func(ctx context.Context, peer, path, requestID string, body []byte) (ForwardResult, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set(ForwardedHeader, fwd.self)
		req.Header.Set(requestIDHeader, requestID)
		rec := httptest.NewRecorder()
		owner.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return ForwardResult{}, errors.New("owner answered " + rec.Result().Status)
		}
		return ForwardResult{Status: rec.Code, Cache: rec.Header().Get("X-Cache"), Body: rec.Body.Bytes()}, nil
	}
	entry := New(Config{Forwarder: fwd})
	defer entry.Close()
	standalone := New(Config{})
	defer standalone.Close()

	rec := post(t, entry, "/v1/predict", predictReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	want := post(t, standalone, "/v1/predict", predictReq)
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Error("forwarded answer is not byte-identical to a standalone computation")
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want the owner's verdict %q", got, "miss")
	}
	if got := rec.Header().Get(ClusterViaHeader); got != "forward" {
		t.Errorf("%s = %q, want %q", ClusterViaHeader, got, "forward")
	}
	if got := rec.Header().Get(ClusterOwnerHeader); got != "owner" {
		t.Errorf("%s = %q, want %q", ClusterOwnerHeader, got, "owner")
	}
	if got := rec.Header().Get(ClusterNodeHeader); got != "entry" {
		t.Errorf("%s = %q, want %q", ClusterNodeHeader, got, "entry")
	}

	// Hot-key replication at the entry node: the relayed bytes were
	// cached, so the repeat is a local hit — no second forward.
	rec = post(t, entry, "/v1/predict", predictReq)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache = %q, want local hit from the replicated entry", got)
	}
	if n := fwd.forwardCount(); n != 1 {
		t.Errorf("forward count = %d, want 1 (repeat served locally)", n)
	}
}

// TestSweepForwardsPeerOwnedPoints: in cluster mode a grid's predict
// point owned by a peer is forwarded once, and its line carries the
// owner's verdict (here a hit on the pre-warmed owner), not the entry's
// local miss. The relayed bytes enter the entry's cache under the predict
// key, so a later /v1/predict for the same key is a local hit. The grid's
// budget point has no standalone endpoint and computes locally.
func TestSweepForwardsPeerOwnedPoints(t *testing.T) {
	owner := New(Config{})
	defer owner.Close()
	if rec := post(t, owner, "/v1/predict", predictReq); rec.Code != http.StatusOK {
		t.Fatalf("warming the owner: status = %d", rec.Code)
	}
	fwd := &stubForwarder{
		self:  "entry",
		place: func(string) (string, []string, bool) { return "owner", []string{"owner"}, false },
	}
	fwd.forward = func(ctx context.Context, peer, path, requestID string, body []byte) (ForwardResult, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set(ForwardedHeader, fwd.self)
		rec := httptest.NewRecorder()
		owner.Handler().ServeHTTP(rec, req)
		return ForwardResult{Status: rec.Code, Cache: rec.Header().Get("X-Cache"), Body: rec.Body.Bytes()}, nil
	}
	entry := New(Config{Forwarder: fwd})
	defer entry.Close()

	rec := post(t, entry, "/v1/sweep", SweepRequest{
		Configs: []ConfigSpec{predictReq.Config}, Workloads: []WorkloadSpec{predictReq.Workload},
		Budgets: []float64{5000},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", rec.Code, rec.Body.String())
	}
	lines, summary := readStream(t, rec.Body.Bytes())
	if len(lines) != 2 || lines[0].Kind != "predict" || lines[1].Kind != "budget" {
		t.Fatalf("lines = %+v", lines)
	}
	if lines[0].Error != nil || lines[0].Cache != "hit" {
		t.Errorf("forwarded point: cache %q, error %+v; want the owner's verdict hit", lines[0].Cache, lines[0].Error)
	}
	if lines[1].Error != nil || lines[1].Cache != "miss" {
		t.Errorf("budget point: cache %q, error %+v; want a local miss", lines[1].Cache, lines[1].Error)
	}
	if summary.CacheHits != 1 || summary.CacheMisses != 1 || !summary.Complete {
		t.Errorf("summary = %+v, want 1 hit (relayed) and 1 miss (local budget)", summary)
	}
	if n := fwd.forwardCount(); n != 1 {
		t.Fatalf("forwards = %d, want 1 (the predict point only)", n)
	}

	single := post(t, entry, "/v1/predict", predictReq)
	if got := single.Header().Get("X-Cache"); single.Code != http.StatusOK || got != "hit" {
		t.Errorf("predict after the sweep: status %d, X-Cache %q; want a local hit", single.Code, got)
	}
	if !bytes.Equal(compact(t, single.Body.Bytes()), lines[0].Response) {
		t.Error("the sweep line and the later predict carry different bytes")
	}
	if n := fwd.forwardCount(); n != 1 {
		t.Errorf("forwards = %d after the predict, want still 1", n)
	}
}

// TestForwardFailureFallsBackLocal: when every owner attempt fails, the
// node computes the answer itself — correctness over placement — and
// says so in the placement headers and metrics.
func TestForwardFailureFallsBackLocal(t *testing.T) {
	fwd := &stubForwarder{
		self:  "entry",
		place: func(string) (string, []string, bool) { return "dead1", []string{"dead1", "dead2"}, false },
		forward: func(context.Context, string, string, string, []byte) (ForwardResult, error) {
			return ForwardResult{}, errors.New("connection refused")
		},
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()

	rec := post(t, s, "/v1/predict", predictReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(ClusterViaHeader); got != "fallback" {
		t.Errorf("%s = %q, want %q", ClusterViaHeader, got, "fallback")
	}
	if n := fwd.forwardCount(); n != 2 {
		t.Errorf("forward attempts = %d, want 2 (both owners tried)", n)
	}
	if got := s.metrics.LocalFallbacks.Value(); got != 1 {
		t.Errorf("local_fallbacks = %d, want 1", got)
	}
	if got := s.metrics.ForwardFails.Value(); got != 2 {
		t.Errorf("forward_fails = %d, want 2", got)
	}
}

// TestFallbackNamesDroppedOwner: when Place has already dropped every
// owner as unusable, the fallback answer still names the key's ring owner
// in X-Cluster-Owner. No forward was attempted, so forward_fails stays 0
// and local_fallbacks counts the one local computation.
func TestFallbackNamesDroppedOwner(t *testing.T) {
	fwd := &stubForwarder{
		self:  "entry",
		place: func(string) (string, []string, bool) { return "down-peer", nil, false },
		forward: func(context.Context, string, string, string, []byte) (ForwardResult, error) {
			return ForwardResult{}, errors.New("must not be called")
		},
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()

	rec := post(t, s, "/v1/predict", predictReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(ClusterViaHeader); got != "fallback" {
		t.Errorf("%s = %q, want %q", ClusterViaHeader, got, "fallback")
	}
	if got := rec.Header().Get(ClusterOwnerHeader); got != "down-peer" {
		t.Errorf("%s = %q, want the dropped ring owner %q", ClusterOwnerHeader, got, "down-peer")
	}
	if n := fwd.forwardCount(); n != 0 {
		t.Errorf("forward attempts = %d, want 0", n)
	}
	if got := s.metrics.LocalFallbacks.Value(); got != 1 {
		t.Errorf("local_fallbacks = %d, want 1", got)
	}
	if got := s.metrics.ForwardFails.Value(); got != 0 {
		t.Errorf("forward_fails = %d, want 0", got)
	}
}

// TestForwardedRequestComputesLocally: a request that already took its
// one forwarding hop never consults the ring again, whatever the ring
// would say — the hop budget is what makes ring-view disagreement safe.
func TestForwardedRequestComputesLocally(t *testing.T) {
	fwd := &stubForwarder{
		self:  "owner",
		place: func(string) (string, []string, bool) { return "elsewhere", []string{"elsewhere"}, false },
		forward: func(context.Context, string, string, string, []byte) (ForwardResult, error) {
			return ForwardResult{}, errors.New("must not be called")
		},
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()

	rec := postForwarded(t, s, "/v1/predict", predictReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if fwd.forwardCount() != 0 || fwd.placed != 0 {
		t.Errorf("forwarded request consulted the ring (place=%d forwards=%d)", fwd.placed, fwd.forwardCount())
	}
	if got := rec.Header().Get(ClusterNodeHeader); got != "owner" {
		t.Errorf("%s = %q, want %q", ClusterNodeHeader, got, "owner")
	}
}

// TestForwardedDrainingRejected: a draining node refuses forwarded work
// with the draining error body, telling the forwarder to fall back to
// local compute instead of waiting out a dying peer. (The user-visible
// effect — no 429 reaches the client while other nodes are healthy — is
// asserted end-to-end in internal/cluster.)
func TestForwardedDrainingRejected(t *testing.T) {
	fwd := &stubForwarder{
		self:  "owner",
		place: func(string) (string, []string, bool) { return "owner", nil, true },
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()
	s.BeginDrain()

	rec := postForwarded(t, s, "/v1/predict", predictReq)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 for forwarded work on a draining node", rec.Code)
	}
	resp := decodeBody[ErrorResponse](t, rec)
	if resp.Code != CodeDraining {
		t.Errorf("code = %q, want %q", resp.Code, CodeDraining)
	}
	if resp.RetryAfterSeconds < 1 || rec.Header().Get("Retry-After") == "" {
		t.Error("draining rejection is missing the Retry-After contract")
	}
}

// TestServeCachedHitIsSynchronous: a hit is answered from the probe,
// before any deadline race — even a request whose deadline has already
// passed gets the cached bytes — and it never runs the computation. A
// forwarded request to a draining node is still refused first.
func TestServeCachedHitIsSynchronous(t *testing.T) {
	fwd := &stubForwarder{
		self:  "owner",
		place: func(string) (string, []string, bool) { return "owner", nil, true },
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()
	s.cache.do(context.Background(), "k", ok("cached"))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	compute := func() (entry, error) {
		t.Error("a cache hit ran the computation")
		return entry{}, errors.New("unreachable")
	}
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		s.serveCached(expired, rec, req, "predict", "k", compute)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || rec.Body.String() != "cached" {
			t.Fatalf("hit %d: status %d, X-Cache %q, body %q", i, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		if rec.Header().Get(ClusterNodeHeader) != "owner" || rec.Header().Get(ClusterViaHeader) != "" {
			t.Fatalf("hit %d: cluster headers %v", i, rec.Header())
		}
	}
	if got := s.metrics.CacheHits.Value(); got != 50 {
		t.Errorf("cache hits counted %d, want 50", got)
	}

	s.BeginDrain()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Header.Set(ForwardedHeader, "origin-node")
	s.serveCached(context.Background(), rec, req, "predict", "k", compute)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("forwarded hit on a draining node: status %d, want 429", rec.Code)
	}
}

// TestMetricsClusterSection: cluster counters and the forwarder's view
// appear in the snapshot only in cluster mode.
func TestMetricsClusterSection(t *testing.T) {
	solo := New(Config{})
	defer solo.Close()
	if _, ok := solo.Metrics()["cluster"]; ok {
		t.Error("single-node snapshot carries a cluster section")
	}

	fwd := &stubForwarder{
		self:  "entry",
		place: func(string) (string, []string, bool) { return "peer-b", []string{"peer-b"}, false },
		forward: func(context.Context, string, string, string, []byte) (ForwardResult, error) {
			return ForwardResult{Status: http.StatusOK, Cache: "miss", Body: []byte("{}\n")}, nil
		},
	}
	s := New(Config{Forwarder: fwd})
	defer s.Close()
	if rec := post(t, s, "/v1/predict", predictReq); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	snap := s.Metrics()
	if got := snap["forwards"].(map[string]int64)["peer-b"]; got != 1 {
		t.Errorf("forwards[peer-b] = %d, want 1", got)
	}
	if got := snap["cluster"].(map[string]any)["self"]; got != "entry" {
		t.Errorf("cluster.self = %v, want entry", got)
	}
}

// TestValidateCanonicalReplayIdempotent: the canonical validate request
// the forwarder replays (already-scaled config, divisor pinned to 1)
// resolves to the same cache entry as the original divisor-N spelling —
// replaying must not scale the platform a second time.
func TestValidateCanonicalReplayIdempotent(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var simulated []string
	s.simulate = func(cfg machine.Config, kernel string) (backend.RunResult, error) {
		simulated = append(simulated, cfg.Name)
		return backend.RunResult{}, nil
	}

	rec := post(t, s, "/v1/validate", ValidateRequest{Config: ConfigSpec{Name: "C4"}, Workload: "fft", Divisor: 16})
	if rec.Code != http.StatusOK {
		t.Fatalf("original request: status = %d, body %s", rec.Code, rec.Body.String())
	}
	// The canonical replay form: key the handler derived, body the
	// forwarder would send.
	rec = post(t, s, "/v1/validate", ValidateRequest{Config: ConfigSpec{Name: "C4", Divisor: 16}, Workload: "fft", Divisor: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("canonical replay: status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("canonical replay X-Cache = %q, want hit (same cache entry)", got)
	}
	if len(simulated) != 1 || simulated[0] != "C4/16" {
		t.Errorf("simulated platforms %v, want exactly one run of the scaled C4/16", simulated)
	}
}

// TestCanonicalReplayEveryCachedRoute pins the forwarding invariant of
// every cache-backed route in the route table: the canonical body a cache
// key carries — what a cluster node replays at the key's owner — resolves
// back to the same key. Each route gets a non-canonical spelling (aliases,
// reordered fields, an omitted optimize top, divisor-N configs, fit
// weights); replaying its key's body against the route's path must be a
// hit with the same bytes and no second computation.
func TestCanonicalReplayEveryCachedRoute(t *testing.T) {
	truth := locality.Params{Alpha: 1.8, Beta: 700}
	xs := []float64{0, 250, 1000, 4000, 16000, 64000}
	ps := make([]float64, len(xs))
	for i, x := range xs {
		ps[i] = truth.CDF(x)
	}
	// A map marshals its keys sorted: gamma, ps, weights, xs — not the
	// request's field order.
	fit, err := json.Marshal(map[string]any{"gamma": 0.3, "ps": ps, "weights": []float64{1, 2, 3, 3, 2, 1}, "xs": xs})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct{ path, body string }{
		"predict":  {"/v1/predict", `{"workload":{"name":"FFT"},"config":{"name":"c4","divisor":16}}`},
		"optimize": {"/v1/optimize", `{"workload":{"name":"Radix"},"budget":5000}`},
		"advise":   {"/v1/advise", `{"workload":{"name":"lu"},"budget":1000,"config":{"name":"c8","divisor":4}}`},
		"fit":      {"/v1/fit", string(fit)},
		"validate": {"/v1/validate", `{"workload":"FFT","config":{"name":"c4"},"divisor":8}`},
	}

	routes := New(Config{})
	routes.Close()
	if len(routes.forwardPaths) != len(cases) {
		t.Errorf("%d cached routes %v, %d replay cases", len(routes.forwardPaths), routes.forwardPaths, len(cases))
	}
	for name, path := range routes.forwardPaths {
		tc, ok := cases[name]
		if !ok || tc.path != path {
			t.Errorf("cached route %s (%s) has no replay case", name, path)
			continue
		}
		s := New(Config{})
		s.simulate = func(machine.Config, string) (backend.RunResult, error) { return backend.RunResult{}, nil }
		first := postRaw(t, s, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body)))
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d, X-Cache %q, body %s", name, first.Code, first.Header().Get("X-Cache"), first.Body)
		}
		keys := cacheKeys(s)
		if len(keys) != 1 {
			t.Fatalf("%s: %d cache keys after one request", name, len(keys))
		}
		replayPath, body, ok := s.forwardTarget(keys[0])
		if !ok || replayPath != path {
			t.Fatalf("%s: key %q forwards to %q (ok %v), want %s", name, keys[0], replayPath, ok, path)
		}
		if body == tc.body {
			t.Errorf("%s: the spelling %s is already canonical", name, body)
		}
		replay := postRaw(t, s, httptest.NewRequest(http.MethodPost, replayPath, strings.NewReader(body)))
		if replay.Code != http.StatusOK || replay.Header().Get("X-Cache") != "hit" {
			t.Errorf("%s: replay of %s: status %d, X-Cache %q, want a hit", name, body, replay.Code, replay.Header().Get("X-Cache"))
		}
		if !bytes.Equal(replay.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: replay answered different bytes", name)
		}
		if got := s.metrics.CacheMisses.Value(); got != 1 {
			t.Errorf("%s: %d computations, want 1", name, got)
		}
		s.Close()
	}
}

// cacheKeys lists the keys of the result cache.
func cacheKeys(s *Server) []string {
	var keys []string
	for _, sh := range s.cache.shards {
		sh.mu.Lock()
		for k := range sh.items {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys
}
