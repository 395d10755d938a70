// Command chc-chaos is the soak/chaos harness for chc-serve: it starts
// in-process servers under each profile, drives randomized request mixes
// through the resilient client, and checks the service's resilience
// invariants:
//
//   - cached responses are byte-identical across fault injection and
//     across entry nodes: a request signature that ever answered 200
//     always answers those bytes
//   - each signature is successfully computed at most once (one 200
//     miss), cluster-wide on a cluster; everything after comes from a
//     cache
//   - a burst of identical cold twins computes once: one miss, every
//     other twin deduplicates onto the flight or hits
//   - shed requests always carry 429 + Retry-After and the JSON error
//     contract
//   - every non-2xx body is JSON with a machine-readable code and the
//     request ID echoed from the response header
//   - drain completes in-flight work: /readyz fails during drain while
//     accepted requests still finish with 200
//
// Every profile runs the same phases (phases.go) over its node set: a
// soak, a twin burst and a drain. The fault profiles (none, latency,
// errors, panics, saturation, timeouts, mixed) run one node under that
// profile's injected faults, and add a shed phase. The last profile,
// cluster, runs three nodes on one consistent-hash ring, soaked through
// the multi-base client, and adds a phase that kills a node mid-soak.
//
// Exit status 0 means every invariant held under every profile run; any
// violation prints and exits 1. The run is seed-driven: the same -seed
// replays the same request mix and the same injected fault sequence.
//
// Usage:
//
//	chc-chaos -seed 1 -profile all -requests 400 -concurrency 8
//	chc-chaos -seed 1 -profile cluster -requests 400 -concurrency 8
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"memhier/internal/client"
	"memhier/internal/cluster"
	"memhier/internal/faults"
	"memhier/internal/server"
)

// clusterProfile names the profile that runs clusterNodes nodes on one
// ring instead of one node under injected faults.
const (
	clusterProfile = "cluster"
	clusterNodes   = 3
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "seed for the request mix and the fault injectors")
		profileName = flag.String("profile", "all", "profile to run: a fault profile, \"cluster\", or \"all\"")
		requests    = flag.Int("requests", 400, "soak requests per profile")
		concurrency = flag.Int("concurrency", 8, "concurrent soak workers")
	)
	flag.Parse()

	names := []string{*profileName}
	if *profileName == "all" {
		names = append(faults.ProfileNames(), clusterProfile)
	}
	failed := false
	for _, name := range names {
		r, err := runProfile(name, *seed, *requests, *concurrency)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chc-chaos: %v\n", err)
			os.Exit(2)
		}
		r.print()
		failed = failed || r.failed()
	}
	if failed {
		fmt.Println("\nchc-chaos: FAIL — invariant violations above")
		os.Exit(1)
	}
	fmt.Println("\nchc-chaos: all invariants held under all profiles")
}

// Each phase runs on fresh nodes whose faults are chosen to provoke the
// behavior under test, so "-profile errors" still verifies the twin
// burst, shedding and drain.
var (
	burstFaults = faults.Profile{
		Name: "twin-burst", LatencyProb: 1, Latency: 15 * time.Millisecond,
		OverrunProb: 1, Overrun: 100 * time.Millisecond,
	}
	shedFaults  = faults.Profile{Name: "shed-flood", OverrunProb: 1, Overrun: 50 * time.Millisecond}
	drainFaults = faults.Profile{Name: "drain-slow", OverrunProb: 1, Overrun: 150 * time.Millisecond}
)

// runProfile runs every phase of one profile. The soak injects the fault
// profile's faults on a single node; the cluster soak injects none.
func runProfile(name string, seed int64, requests, concurrency int) (*report, error) {
	r := &report{profile: name, outcomes: make(map[string]int)}
	n, soakFaults := clusterNodes, (*faults.Injector)(nil)
	if name != clusterProfile {
		p, err := faults.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		n, soakFaults = 1, faults.NewInjector(p, seed)
	}
	cfg := server.Config{RequestTimeout: 10 * time.Second}

	nodes := startNodes(n, cfg, func(int) *faults.Injector { return soakFaults })
	soak(r, nodes, seed, requests, concurrency)
	stopNodes(nodes)
	r.summary = "node kill + drain (no injected compute faults in soak)"
	if soakFaults != nil {
		r.summary = soakFaults.Summary()
	}

	nodes = startNodes(n, cfg, func(i int) *faults.Injector { return faults.NewInjector(burstFaults, seed+int64(i)) })
	burst(r, nodes)
	stopNodes(nodes)

	if n == 1 {
		shedCfg := cfg
		shedCfg.SimWorkers = 1
		nodes = startNodes(1, shedCfg, func(int) *faults.Injector { return faults.NewInjector(shedFaults, seed) })
		shed(r, nodes[0])
	} else {
		nodes = startNodes(n, cfg, nil)
		kill(r, nodes, seed, requests, concurrency)
	}
	stopNodes(nodes)

	// Only the drain target computes slowly, so its in-flight request is
	// provably still running when the drain begins.
	nodes = startNodes(n, cfg, func(i int) *faults.Injector {
		if i == n-1 {
			return faults.NewInjector(drainFaults, seed)
		}
		return nil
	})
	drain(r, nodes)
	stopNodes(nodes)
	return r, nil
}

// ---- nodes ----

// chaosNode is one in-process chc-serve: its listener, its server and,
// when it is one of several, its ring membership (nil otherwise).
type chaosNode struct {
	name string
	ts   *httptest.Server
	srv  *server.Server
	clu  *cluster.Cluster
}

// startNodes starts n nodes named n0..n{n-1} from cfg; node i injects
// the faults faultsFor(i) returns (none for a nil func or a nil
// injector). With n > 1 the nodes form one ring with a fast probe
// cadence. Every listener serves its node's handler before any node
// starts probing, so no first probe finds a peer that cannot answer.
func startNodes(n int, cfg server.Config, faultsFor func(i int) *faults.Injector) []*chaosNode {
	nodes := make([]*chaosNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		nodes[i] = &chaosNode{name: fmt.Sprintf("n%d", i), ts: httptest.NewUnstartedServer(nil)}
		peers[nodes[i].name] = "http://" + nodes[i].ts.Listener.Addr().String()
	}
	for i, nd := range nodes {
		cfg := cfg
		if faultsFor != nil {
			if inj := faultsFor(i); inj != nil {
				cfg.Faults = inj
			}
		}
		if n > 1 {
			clu, err := cluster.New(cluster.Config{
				Self:          nd.name,
				Peers:         peers,
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  250 * time.Millisecond,
				ClientOptions: client.Options{
					MaxRetries:  1,
					BaseBackoff: time.Millisecond,
					MaxBackoff:  5 * time.Millisecond,
				},
			})
			if err != nil {
				panic(err) // static local membership; cannot fail at runtime
			}
			nd.clu, cfg.Forwarder = clu, clu
		}
		nd.srv = server.New(cfg)
		nd.ts.Config.Handler = nd.srv.Handler()
	}
	for _, nd := range nodes {
		nd.ts.Start()
	}
	for _, nd := range nodes {
		if nd.clu != nil {
			nd.clu.Start()
		}
	}
	return nodes
}

// stopNodes stops probing and closes every listener and server. Close
// waits for accepted pool work, so a server that hangs after a drain
// hangs the run here.
func stopNodes(nodes []*chaosNode) {
	for _, nd := range nodes {
		if nd.clu != nil {
			nd.clu.Stop()
		}
		nd.ts.Close()
		nd.srv.Close()
	}
}

// post sends one JSON request to a node, without retries, and returns
// the response with its whole body.
func post(nd *chaosNode, path string, req any) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := nd.ts.Client().Post(nd.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// ---- report ----

// report accumulates one profile's results.
type report struct {
	profile    string
	mu         sync.Mutex
	outcomes   map[string]int // guarded by mu: "soak: 200 hit", "soak: breaker-open", ...
	violations []string       // guarded by mu
	diagnoses  []string       // guarded by mu; printed only beside violations
	summary    string
	soak       time.Duration
}

func (r *report) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 25 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// diagnose records context for a violation: printed after the violations,
// and only when there are some.
func (r *report) diagnose(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.diagnoses = append(r.diagnoses, fmt.Sprintf(format, args...))
}

// failed reports whether any violation was recorded.
func (r *report) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.violations) > 0
}

func (r *report) count(outcome string) {
	r.mu.Lock()
	r.outcomes[outcome]++
	r.mu.Unlock()
}

func (r *report) print() {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Printf("=== profile %s (soak %v) ===\n", r.profile, r.soak.Round(time.Millisecond))
	for _, k := range sortedKeys(r.outcomes) {
		fmt.Printf("  %-40s %d\n", k, r.outcomes[k])
	}
	fmt.Printf("  injected: %s\n", r.summary)
	if len(r.violations) == 0 {
		fmt.Println("  PASS")
		return
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	for _, d := range r.diagnoses {
		fmt.Printf("  DIAGNOSIS: %s\n", d)
	}
}

// checkErrorBody enforces the non-2xx contract on one wire response.
func checkErrorBody(r *report, path string, status int, header http.Header, body []byte) {
	where := fmt.Sprintf("%s -> %d", path, status)
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		r.violate("%s: Content-Type %q, want application/json", where, ct)
	}
	var resp server.ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.violate("%s: non-JSON error body %q", where, truncate(body))
		return
	}
	if resp.Code == "" {
		r.violate("%s: error body has no machine-readable code", where)
	}
	if resp.RequestID == "" {
		r.violate("%s: error body has no request_id", where)
	}
	if hid := header.Get("X-Request-ID"); hid != "" && resp.RequestID != hid {
		r.violate("%s: body request_id %q != header %q", where, resp.RequestID, hid)
	}
	if status == http.StatusTooManyRequests {
		if header.Get("Retry-After") == "" {
			r.violate("%s: 429 without Retry-After header", where)
		}
		if resp.RetryAfterSeconds < 1 {
			r.violate("%s: 429 without retry_after_seconds in body", where)
		}
	}
}

// ---- helpers ----

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func truncate(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..."
	}
	return strings.TrimSpace(string(b))
}
