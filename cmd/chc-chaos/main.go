// Command chc-chaos is the soak/chaos harness for chc-serve: it starts
// in-process servers under each fault-injection profile, drives randomized
// request mixes through the resilient client, and checks the service's
// resilience invariants:
//
//   - cached responses are byte-identical across fault injection: a
//     request signature that ever answered 200 always answers those bytes
//   - single-flight dedup computes each cold key exactly once, even with
//     injected latency holding the flight open
//   - each signature is successfully computed at most once (one 200 miss);
//     everything after comes from the cache
//   - shed requests always carry 429 + Retry-After and the JSON error
//     contract
//   - every non-2xx body is JSON with a machine-readable code and the
//     request ID echoed from the response header
//   - drain completes in-flight work: /readyz fails during drain while
//     accepted requests still finish with 200
//
// Exit status 0 means every invariant held under every profile; any
// violation prints and exits 1. The run is seed-driven: the same -seed
// replays the same request mix and the same injected fault sequence.
//
// The -cluster N flag switches to cluster chaos (cluster.go): N
// in-process nodes on one consistent-hash ring, soaked through the
// multi-base client while a node is killed and another drained, with
// byte-identity, compute-at-most-once, and error-contract invariants
// checked throughout.
//
// Usage:
//
//	chc-chaos -seed 1 -profile all -requests 400 -concurrency 8
//	chc-chaos -cluster 3 -requests 400 -concurrency 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"memhier/internal/client"
	"memhier/internal/faults"
	"memhier/internal/server"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "seed for the request mix and the fault injectors")
		profileName = flag.String("profile", "all", "fault profile to run (or \"all\")")
		requests    = flag.Int("requests", 400, "soak requests per profile")
		concurrency = flag.Int("concurrency", 8, "concurrent soak workers")
		clusterN    = flag.Int("cluster", 0, "run the cluster chaos mode with this many in-process nodes instead of the single-node profiles")
	)
	flag.Parse()

	if *clusterN > 0 {
		if *clusterN < 2 {
			fmt.Fprintln(os.Stderr, "chc-chaos: -cluster needs at least 2 nodes")
			os.Exit(2)
		}
		r := runCluster(*clusterN, *seed, *requests, *concurrency)
		r.print()
		if r.failed() {
			fmt.Println("\nchc-chaos: FAIL — invariant violations above")
			os.Exit(1)
		}
		fmt.Println("\nchc-chaos: all cluster invariants held")
		return
	}

	var profiles []faults.Profile
	if *profileName == "all" {
		for _, name := range faults.ProfileNames() {
			p, err := faults.ProfileByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chc-chaos: %v\n", err)
				os.Exit(2)
			}
			profiles = append(profiles, p)
		}
	} else {
		p, err := faults.ProfileByName(*profileName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chc-chaos: %v\n", err)
			os.Exit(2)
		}
		profiles = []faults.Profile{p}
	}

	failed := false
	for _, p := range profiles {
		r := runProfile(p, *seed, *requests, *concurrency)
		r.print()
		if r.failed() {
			failed = true
		}
	}
	if failed {
		fmt.Println("\nchc-chaos: FAIL — invariant violations above")
		os.Exit(1)
	}
	fmt.Println("\nchc-chaos: all invariants held under all profiles")
}

// report accumulates one profile's results.
type report struct {
	profile    string
	mu         sync.Mutex
	outcomes   map[string]int // guarded by mu: "200 hit", "503 transient", "breaker-open", ...
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
	var keys []string
	for k := range r.outcomes {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ { // insertion sort: tiny n, no extra imports
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		fmt.Printf("  %-28s %d\n", k, r.outcomes[k])
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

// signature is one deterministic request template in the soak mix.
type signature struct {
	name string
	path string
	body any
}

// soakMix returns the request templates the soak phase cycles through.
// Distinct signatures stay far below the cache capacity, so a successful
// response is never evicted — the "computed at most once" invariant holds.
func soakMix() []signature {
	var sigs []signature
	for _, cfg := range []string{"C1", "C4", "C8", "C12"} {
		for _, wl := range []string{"fft", "lu", "radix"} {
			sigs = append(sigs, signature{
				name: "predict/" + cfg + "/" + wl,
				path: "/v1/predict",
				body: server.PredictRequest{Config: server.ConfigSpec{Name: cfg}, Workload: server.WorkloadSpec{Name: wl}},
			})
		}
	}
	sigs = append(sigs,
		signature{"optimize/radix", "/v1/optimize", server.OptimizeRequest{Budget: 5000, Workload: server.WorkloadSpec{Name: "radix"}}},
		signature{"advise/C1/tpcc", "/v1/advise", server.AdviseRequest{Config: server.ConfigSpec{Name: "C1"}, Budget: 3000, Workload: server.WorkloadSpec{Name: "tpcc"}}},
		signature{"fit/small", "/v1/fit", server.FitRequest{
			Xs: []float64{1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20},
			Ps: []float64{0.35, 0.58, 0.79, 0.92, 0.985},
		}},
		signature{"validate/C4/fft", "/v1/validate", server.ValidateRequest{Config: server.ConfigSpec{Name: "C4"}, Workload: "fft", Divisor: 64}},
	)
	return sigs
}

func runProfile(p faults.Profile, seed int64, requests, concurrency int) *report {
	r := &report{profile: p.Name, outcomes: make(map[string]int)}
	inj := faults.NewInjector(p, seed)
	s := server.New(server.Config{Faults: inj, RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())

	soakPhase(r, ts, s, seed, requests, concurrency)
	r.summary = inj.Summary()
	ts.Close()
	s.Close()

	// The remaining phases run on dedicated servers whose fault profiles
	// are chosen to provoke the specific behavior under test; they execute
	// under every profile run so "-profile errors" still verifies dedup,
	// shedding, and drain.
	dedupPhase(r, seed)
	shedPhase(r, seed)
	drainPhase(r, seed)
	return r
}

// ---- soak ----

func soakPhase(r *report, ts *httptest.Server, s *server.Server, seed int64, requests, concurrency int) {
	sigs := soakMix()

	type obs struct {
		mu     sync.Mutex
		bodies map[string][]byte // guarded by mu: signature -> first 200 body
		misses map[string]int    // guarded by mu: signature -> successful (200) misses
	}
	o := &obs{bodies: make(map[string][]byte), misses: make(map[string]int)}

	// The observer sees every wire attempt, including retried ones — the
	// error contract must hold on each, not just the final answer.
	observer := func(a client.Attempt) {
		if a.Err != nil || a.Status == 0 {
			r.count("transport-error")
			return
		}
		if a.Status >= 300 {
			checkErrorBody(r, a.Path, a.Status, a.Header, a.Body)
		}
	}

	// Requests per worker are drawn from one seeded stream, so the mix is
	// reproducible regardless of scheduling.
	rng := rand.New(rand.NewSource(seed))
	work := make(chan signature, requests)
	for i := 0; i < requests; i++ {
		work <- sigs[rng.Intn(len(sigs))]
	}
	close(work)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(workerSeed int64) {
			defer wg.Done()
			c := client.New(ts.URL, client.Options{
				HTTPClient:       ts.Client(),
				MaxRetries:       3,
				BaseBackoff:      2 * time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				RetryAfterCap:    25 * time.Millisecond,
				FailureThreshold: 8,
				OpenFor:          25 * time.Millisecond,
				Seed:             workerSeed,
				Observer:         observer,
			})
			ctx := context.Background()
			for sig := range work {
				meta, err := c.Post(ctx, sig.path, sig.body, nil)
				switch {
				case err == nil:
					r.count(fmt.Sprintf("%d %s", meta.Status, orDash(meta.Cache)))
					o.mu.Lock()
					if meta.Cache == "miss" {
						o.misses[sig.name]++
					}
					if prev, ok := o.bodies[sig.name]; ok {
						if !bytes.Equal(prev, meta.Body) {
							o.mu.Unlock()
							r.violate("soak: %s: 200 body diverged from the first 200 (cache identity broken)", sig.name)
							continue
						}
					} else {
						o.bodies[sig.name] = meta.Body
					}
					o.mu.Unlock()
				case errors.Is(err, client.ErrCircuitOpen):
					r.count("breaker-open")
				default:
					var apiErr *client.APIError
					if errors.As(err, &apiErr) {
						r.count(fmt.Sprintf("%d %s (final)", apiErr.Status, apiErr.Code))
					} else {
						r.count("client-error")
					}
				}
			}
		}(seed + int64(w) + 1)
	}
	wg.Wait()
	r.soak = time.Since(start)

	for sig, n := range o.misses {
		if n > 1 {
			r.violate("soak: %s: computed successfully %d times (want at most one 200 miss)", sig, n)
		}
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

// ---- dedup burst ----

// dedupPhase fires K identical cold requests concurrently at a server
// whose profile injects entry latency and a compute overrun, so the
// single flight is provably held open while the burst lands: exactly one
// compute (one miss), everyone else deduplicates onto it.
func dedupPhase(r *report, seed int64) {
	const k = 12
	p := faults.Profile{
		Name: "dedup-burst", LatencyProb: 1, Latency: 15 * time.Millisecond,
		OverrunProb: 1, Overrun: 100 * time.Millisecond,
	}
	s := server.New(server.Config{Faults: faults.NewInjector(p, seed)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	body, _ := json.Marshal(server.PredictRequest{
		Config: server.ConfigSpec{Name: "C9"}, Workload: server.WorkloadSpec{Name: "edge"},
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	first := []byte(nil)
	release := make(chan struct{})
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				r.violate("dedup: transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				r.violate("dedup: status %d body %s", resp.StatusCode, truncate(b))
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				r.violate("dedup: concurrent twins got different 200 bodies")
			}
		}()
	}
	close(release)
	wg.Wait()

	m := s.Metrics()
	misses, _ := m["cache_misses"].(int64)
	dedup, _ := m["dedup_waits"].(int64)
	hits, _ := m["cache_hits"].(int64)
	if misses != 1 {
		r.violate("dedup: %d misses for %d identical concurrent requests, want exactly 1", misses, k)
	}
	if dedup+hits != k-1 {
		r.violate("dedup: misses=%d dedup=%d hits=%d do not account for %d requests", misses, dedup, hits, k)
	}
	if dedup == 0 {
		r.violate("dedup: no request deduplicated onto the in-flight computation")
	}
	r.count(fmt.Sprintf("dedup-burst: 1 miss + %d dedup + %d hit", dedup, hits))
}

// ---- shedding ----

// shedPhase floods a one-worker, zero-queue server with distinct
// simulation requests: everything beyond the single in-flight simulation
// must shed with the full 429 contract, and at least one request must
// still succeed.
func shedPhase(r *report, seed int64) {
	p := faults.Profile{Name: "shed-flood", OverrunProb: 1, Overrun: 50 * time.Millisecond}
	s := server.New(server.Config{
		SimWorkers: 1, SimQueueDepth: 0,
		Faults: faults.NewInjector(p, seed),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	kernels := []string{"fft", "lu", "radix", "edge", "tpcc"}
	divisors := []int{32, 64, 128}
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed, ok200 := 0, 0
	for _, kern := range kernels {
		for _, div := range divisors {
			wg.Add(1)
			go func(kern string, div int) {
				defer wg.Done()
				body, _ := json.Marshal(server.ValidateRequest{
					Config: server.ConfigSpec{Name: "C4"}, Workload: kern, Divisor: div,
				})
				resp, err := ts.Client().Post(ts.URL+"/v1/validate", "application/json", bytes.NewReader(body))
				if err != nil {
					r.violate("shed: transport error: %v", err)
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200++
				case http.StatusTooManyRequests:
					shed++
					checkErrorBody(r, "/v1/validate", resp.StatusCode, resp.Header, b)
				default:
					r.violate("shed: unexpected status %d body %s", resp.StatusCode, truncate(b))
				}
			}(kern, div)
		}
	}
	wg.Wait()
	if shed == 0 {
		r.violate("shed: flood of %d sims against 1 worker produced no 429", len(kernels)*len(divisors))
	}
	if ok200 == 0 {
		r.violate("shed: no request succeeded during the flood")
	}
	r.count(fmt.Sprintf("shed-flood: %d ok, %d shed", ok200, shed))
}

// ---- drain ----

// drainPhase verifies graceful shutdown semantics: once draining, /readyz
// fails with the JSON contract while the already-accepted slow request
// still completes with 200.
func drainPhase(r *report, seed int64) {
	p := faults.Profile{Name: "drain-slow", OverrunProb: 1, Overrun: 150 * time.Millisecond}
	s := server.New(server.Config{Faults: faults.NewInjector(p, seed)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(server.ValidateRequest{
			Config: server.ConfigSpec{Name: "C1"}, Workload: "fft", Divisor: 64,
		})
		close(started)
		resp, err := ts.Client().Post(ts.URL+"/v1/validate", "application/json", bytes.NewReader(body))
		if err != nil {
			result <- fmt.Errorf("in-flight request: %w", err)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			result <- fmt.Errorf("in-flight request finished %d: %s", resp.StatusCode, truncate(b))
			return
		}
		result <- nil
	}()

	<-started
	time.Sleep(30 * time.Millisecond) // let the request reach its 150ms compute overrun
	s.BeginDrain()

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		r.violate("drain: readyz: %v", err)
	} else {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			r.violate("drain: readyz status %d during drain, want 503", resp.StatusCode)
		} else {
			checkErrorBody(r, "/readyz", resp.StatusCode, resp.Header, b)
		}
	}

	select {
	case err := <-result:
		if err != nil {
			r.violate("drain: %v", err)
		} else {
			r.count("drain: in-flight completed 200")
		}
	case <-time.After(30 * time.Second):
		r.violate("drain: in-flight request never completed")
	}
	s.Close() // waits for accepted pool work; must not hang after drain
}

// ---- helpers ----

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
