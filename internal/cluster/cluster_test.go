package cluster

// End-to-end cluster tests: real rings, real HTTP servers, real peer
// clients. The harness starts N chc-serve nodes over httptest listeners,
// each wired to its own Cluster forwarder, and drives them through the
// public API — the same wiring cmd/chc-serve -peers produces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memhier/internal/client"
	"memhier/internal/server"
)

// swapHandler lets the listener start before the server exists (the
// cluster needs every base URL up front, the server needs the cluster).
type swapHandler struct{ v atomic.Value }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(http.Handler).ServeHTTP(w, r)
}

type testNode struct {
	name string
	ts   *httptest.Server
	srv  *server.Server
	cl   *Cluster
	swap *swapHandler

	mu        sync.Mutex
	forwarded []forwardSeen // guarded by mu; forwarded requests this node received
}

type forwardSeen struct{ origin, requestID, path string }

// startCluster brings up n nodes named n0..n{n-1} with identical ring
// views. Fast client settings keep owner-failure tests snappy.
func startCluster(t *testing.T, n, replicas int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		nodes[i] = &testNode{name: fmt.Sprintf("n%d", i), ts: httptest.NewServer(sh), swap: sh}
		peers[nodes[i].name] = nodes[i].ts.URL
	}
	for _, nd := range nodes {
		cl, err := New(Config{
			Self: nd.name, Peers: peers, Replicas: replicas,
			ClientOptions: client.Options{
				MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.cl = cl
		nd.srv = server.New(server.Config{Forwarder: cl})
		inner := nd.srv.Handler()
		nd.swap.v.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if origin := r.Header.Get(server.ForwardedHeader); origin != "" {
				nd.mu.Lock()
				nd.forwarded = append(nd.forwarded, forwardSeen{
					origin: origin, requestID: r.Header.Get("X-Request-ID"), path: r.URL.Path,
				})
				nd.mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})))
		t.Cleanup(nd.srv.Close)
		t.Cleanup(nd.ts.Close)
	}
	return nodes
}

// predictBody returns the i-th candidate request: distinct deltas make
// distinct cache keys, scattering candidates across the ring.
func predictBody(i int) []byte {
	return []byte(fmt.Sprintf(
		`{"config":{"name":"C4"},"workload":{"name":"fft"},"delta":%g}`, float64(i+1)/10000))
}

type answer struct {
	status int
	header http.Header
	body   []byte
}

// postNode sends one request to a node's public URL, optionally with an
// explicit request ID.
func postNode(t *testing.T, nd *testNode, path, requestID string, body []byte) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, nd.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post %s to %s: %v", path, nd.name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{status: resp.StatusCode, header: resp.Header, body: b}
}

// findForwarded scans candidates from start until entry answers one via
// a forward (optionally to a specific owner), returning the candidate
// index. Each probe caches its answer at the entry node, so callers must
// keep advancing start for fresh keys.
func findForwarded(t *testing.T, entry *testNode, start int, owner string) (int, answer) {
	t.Helper()
	for i := start; i < start+200; i++ {
		ans := postNode(t, entry, "/v1/predict", "", predictBody(i))
		if ans.status != http.StatusOK {
			t.Fatalf("probe %d: status %d, body %s", i, ans.status, ans.body)
		}
		if ans.header.Get(server.ClusterViaHeader) != "forward" {
			continue
		}
		if owner == "" || ans.header.Get(server.ClusterOwnerHeader) == owner {
			return i, ans
		}
	}
	t.Fatalf("no candidate owned by %q found in 200 probes", owner)
	return 0, answer{}
}

// TestByteIdenticalAcrossEntryNodes: the same request through every
// entry node yields byte-identical 200 bodies, computed exactly once —
// the first entry reports the owner's miss, every other entry either
// relays the owner's hit or hits its own replicated copy.
func TestByteIdenticalAcrossEntryNodes(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	body := predictBody(0)

	var answers []answer
	misses := 0
	for _, nd := range nodes {
		ans := postNode(t, nd, "/v1/predict", "", body)
		if ans.status != http.StatusOK {
			t.Fatalf("entry %s: status %d, body %s", nd.name, ans.status, ans.body)
		}
		if got := ans.header.Get(server.ClusterNodeHeader); got != nd.name {
			t.Errorf("entry %s: %s = %q", nd.name, server.ClusterNodeHeader, got)
		}
		if ans.header.Get("X-Cache") == "miss" {
			misses++
		}
		answers = append(answers, ans)
	}
	for i := 1; i < len(answers); i++ {
		if !bytes.Equal(answers[i].body, answers[0].body) {
			t.Errorf("entry %s body diverges from entry %s", nodes[i].name, nodes[0].name)
		}
	}
	if misses != 1 {
		t.Errorf("cluster-wide misses = %d, want exactly 1 computation", misses)
	}
}

// TestClusterWideSingleFlight: concurrent identical requests through
// different entry nodes still compute once — local waiters dedup onto
// their node's leader, leaders forward, and the owner's single-flight
// collapses the forwards.
func TestClusterWideSingleFlight(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	body := predictBody(1)

	const k = 12
	answers := make([]answer, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i] = postNode(t, nodes[i%len(nodes)], "/v1/predict", "", body)
		}(i)
	}
	wg.Wait()

	misses := 0
	for i, ans := range answers {
		if ans.status != http.StatusOK {
			t.Fatalf("call %d: status %d, body %s", i, ans.status, ans.body)
		}
		if !bytes.Equal(ans.body, answers[0].body) {
			t.Errorf("call %d body diverges", i)
		}
		if ans.header.Get("X-Cache") == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("cluster-wide misses = %d across %d concurrent calls, want 1", misses, k)
	}
}

// TestForwardCarriesRequestID: the owner sees the entry node's hop
// marker and the original request ID — a forwarded computation traces
// as one request end to end.
func TestForwardCarriesRequestID(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	entry := nodes[0]

	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("trace-%d", i)
		ans := postNode(t, entry, "/v1/predict", id, predictBody(i))
		if ans.status != http.StatusOK {
			t.Fatalf("probe %d: status %d", i, ans.status)
		}
		if ans.header.Get(server.ClusterViaHeader) != "forward" {
			continue
		}
		owner := ans.header.Get(server.ClusterOwnerHeader)
		for _, nd := range nodes[1:] {
			if nd.name != owner {
				continue
			}
			nd.mu.Lock()
			seen := append([]forwardSeen(nil), nd.forwarded...)
			nd.mu.Unlock()
			for _, f := range seen {
				if f.requestID == id {
					if f.origin != entry.name {
						t.Errorf("hop marker = %q, want %q", f.origin, entry.name)
					}
					if f.path != "/v1/predict" {
						t.Errorf("forwarded path = %q", f.path)
					}
					if echoed := ans.header.Get("X-Request-ID"); echoed != id {
						t.Errorf("entry echoed ID %q, want %q", echoed, id)
					}
					return
				}
			}
			t.Fatalf("owner %s never saw forwarded request ID %q", owner, id)
		}
	}
	t.Fatal("no forwarded candidate found in 200 probes")
}

// TestOwnerDeathFallsBack: killing a node's listener leaves its keys
// servable — forwards fail, the probe marks it down, and entry nodes
// compute locally. No request ever fails user-visibly.
func TestOwnerDeathFallsBack(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	entry := nodes[0]

	// Identify a victim that owns at least one candidate, then kill it.
	idx, ans := findForwarded(t, entry, 0, "")
	victim := ans.header.Get(server.ClusterOwnerHeader)
	var victimNode *testNode
	for _, nd := range nodes {
		if nd.name == victim {
			victimNode = nd
		}
	}
	victimNode.ts.Close()

	// Fresh keys owned by the dead node now fall back to local compute.
	sawFallback := false
	for i := idx + 1; i < idx+60; i++ {
		ans := postNode(t, entry, "/v1/predict", "", predictBody(i))
		if ans.status != http.StatusOK {
			t.Fatalf("candidate %d after owner death: status %d, body %s", i, ans.status, ans.body)
		}
		if ans.header.Get(server.ClusterViaHeader) == "fallback" {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("no local fallback observed after killing an owner")
	}

	// A probe round records the death in the health view, and placement
	// stops offering the dead peer.
	entry.cl.Probe(context.Background())
	stats := entry.cl.Stats()
	peer := stats["peers"].(map[string]any)[victim].(map[string]any)
	if peer["healthy"].(bool) {
		t.Errorf("victim %s still marked healthy after probe", victim)
	}
}

// TestDrainingOwnerFallsBackNo429: while an owner drains, forwarded work
// is refused with the draining body and the entry node computes locally —
// the user keeps getting 200s from healthy entry nodes, never a 429.
func TestDrainingOwnerFallsBackNo429(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	entry := nodes[0]
	for _, nd := range nodes[1:] {
		nd.srv.BeginDrain()
	}

	sawFallback := false
	for i := 0; i < 40; i++ {
		ans := postNode(t, entry, "/v1/predict", "", predictBody(i))
		if ans.status != http.StatusOK {
			t.Fatalf("candidate %d with draining owners: status %d, body %s — draining leaked to the user", i, ans.status, ans.body)
		}
		if ans.header.Get(server.ClusterViaHeader) == "fallback" {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("no candidate fell back; draining peers were never consulted")
	}
}

// TestReplicatedPlacement: with R=2, each key has two owners; an entry
// node that is the key's secondary serves it locally, and a forwarding
// entry has a second owner to try when the primary is down.
func TestReplicatedPlacement(t *testing.T) {
	nodes := startCluster(t, 3, 2)
	entry := nodes[0]

	// Across many keys, some must place entry as a (primary or backup)
	// owner — via=local — and some must forward.
	locals, forwards := 0, 0
	for i := 0; i < 60; i++ {
		ans := postNode(t, entry, "/v1/predict", "", predictBody(i))
		if ans.status != http.StatusOK {
			t.Fatalf("candidate %d: status %d", i, ans.status)
		}
		switch ans.header.Get(server.ClusterViaHeader) {
		case "local":
			locals++
		case "forward":
			forwards++
		}
	}
	if locals == 0 || forwards == 0 {
		t.Fatalf("R=2 placement degenerate: locals=%d forwards=%d of 60", locals, forwards)
	}

	// Kill one peer: every key still has a usable owner or falls back;
	// all traffic stays 200.
	nodes[1].ts.Close()
	entry.cl.Probe(context.Background())
	for i := 60; i < 100; i++ {
		if ans := postNode(t, entry, "/v1/predict", "", predictBody(i)); ans.status != http.StatusOK {
			t.Fatalf("candidate %d after peer death: status %d", i, ans.status)
		}
	}
}

// TestStatsShape: the metrics bridge exposes ring ownership and peer
// health through the server's /metrics endpoint.
func TestStatsShape(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	entry := nodes[0]
	if _, err := http.Post(entry.ts.URL+"/v1/predict", "application/json", bytes.NewReader(predictBody(0))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(entry.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	cl, ok := snap["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("metrics carry no cluster section: %v", snap)
	}
	if cl["self"] != "n0" || cl["nodes"].(float64) != 3 {
		t.Errorf("cluster section = %v", cl)
	}
	own := cl["ownership_fraction"].(float64)
	peers := cl["peers"].(map[string]any)
	for _, p := range peers {
		own += p.(map[string]any)["ownership_fraction"].(float64)
	}
	if own < 0.999 || own > 1.001 {
		t.Errorf("ownership fractions sum to %v, want 1", own)
	}
	if _, ok := snap["forwards"]; !ok {
		t.Error("metrics missing per-peer forwards map")
	}
}

// TestFailedProbesSurviveRecovery: a peer whose /readyz answers 503
// once and then 200 reads healthy again after the second probe, but its
// failed_probes count still shows the round it was down.
func TestFailedProbesSurviveRecovery(t *testing.T) {
	var readyz atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if readyz.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	c, err := New(Config{Self: "a", Peers: map[string]string{"a": "http://unused.invalid", "b": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.Probe(context.Background())
	c.Probe(context.Background())
	view := c.Stats()["peers"].(map[string]any)["b"].(map[string]any)
	if view["healthy"] != true || view["failed_probes"] != uint64(1) {
		t.Fatalf("peer view after 503 then 200 = %v, want healthy=true failed_probes=1", view)
	}
}

// TestFailedProbesLeaveBreakerClosed: probes go through the peer client
// but never feed its breaker. Three failed probes against a client whose
// breaker opens on one failure mark the peer unhealthy and leave the
// breaker closed, and once the peer answers 200 a forward reaches it.
func TestFailedProbesLeaveBreakerClosed(t *testing.T) {
	var readyz, forwards atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if readyz.Add(1) <= 3 {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		forwards.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c, err := New(Config{
		Self: "a", Peers: map[string]string{"a": "http://unused.invalid", "b": ts.URL},
		ClientOptions: client.Options{FailureThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Probe(context.Background())
	}
	view := c.Stats()["peers"].(map[string]any)["b"].(map[string]any)
	if view["healthy"] != false || view["failed_probes"] != uint64(3) || view["breaker_open"] != false {
		t.Fatalf("peer view after three 503 probes = %v, want healthy=false failed_probes=3 breaker_open=false", view)
	}
	c.Probe(context.Background())
	res, err := c.Forward(context.Background(), "b", "/v1/predict", "probe-test", []byte("{}"))
	if err != nil || res.Status != http.StatusOK || forwards.Load() != 1 {
		t.Fatalf("forward after recovery: %+v, %v, %d forwards, want one 200", res, err, forwards.Load())
	}
}

// TestNewRejectsBadMembership: config validation.
func TestNewRejectsBadMembership(t *testing.T) {
	if _, err := New(Config{Self: "a", Peers: map[string]string{"b": "http://x"}}); err == nil {
		t.Error("self outside peer set accepted")
	}
	if _, err := New(Config{Self: "a", Peers: map[string]string{"a": ""}}); err == nil {
		t.Error("empty peer URL accepted")
	}
	if _, err := New(Config{Self: "", Peers: map[string]string{"a": "http://x"}}); err == nil {
		t.Error("empty self accepted")
	}
}
