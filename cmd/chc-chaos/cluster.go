package main

// Cluster chaos mode (-cluster N): N in-process chc-serve nodes on one
// consistent-hash ring, driven through the multi-base resilient client
// while nodes are killed and drained mid-soak. Invariants checked:
//
//   - responses are byte-identical whichever entry node answers, before
//     and after failures (the cluster acts as one cache)
//   - with every owner healthy, each signature is computed exactly once
//     cluster-wide: one client-visible miss, everything else hit/dedup
//   - a concurrent cold burst spread over all entry nodes dedups onto
//     one computation: misses==1, dedups+hits==K-1
//   - killing a node mid-soak never surfaces a malformed error body,
//     and every signature remains answerable with the recorded bytes
//   - a draining node completes accepted in-flight work, fails /readyz
//     with the JSON contract, and other nodes keep answering 200 (owner
//     drain degrades to local compute, not to user-visible 429s)

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memhier/internal/client"
	"memhier/internal/cluster"
	"memhier/internal/faults"
	"memhier/internal/server"
)

// swapHandler lets the listener exist before the server it serves: the
// cluster config needs every node's URL, and each node's server needs
// the cluster config.
type swapHandler struct{ v atomic.Value }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(http.Handler).ServeHTTP(w, r)
}

// chaosNode is one in-process cluster member.
type chaosNode struct {
	name string
	ts   *httptest.Server
	srv  *server.Server
	clu  *cluster.Cluster
	swap *swapHandler
}

// startChaosCluster launches n nodes with fast probe cadence; injectors
// (optional, by node index) attach a fault profile to specific nodes.
func startChaosCluster(n int, injectors map[int]*faults.Injector) []*chaosNode {
	nodes := make([]*chaosNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		nodes[i] = &chaosNode{name: fmt.Sprintf("n%d", i), ts: httptest.NewServer(sh), swap: sh}
		peers[nodes[i].name] = nodes[i].ts.URL
	}
	for i, nd := range nodes {
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
		cfg := server.Config{Forwarder: clu, RequestTimeout: 10 * time.Second}
		if inj, ok := injectors[i]; ok {
			cfg.Faults = inj
		}
		nd.srv = server.New(cfg)
		nd.clu = clu
		nd.swap.v.Store(nd.srv.Handler())
		clu.Start()
	}
	return nodes
}

func stopChaosCluster(nodes []*chaosNode) {
	for _, nd := range nodes {
		nd.clu.Stop()
		nd.ts.Close()
		nd.srv.Close()
	}
}

func nodeURLs(nodes []*chaosNode) []string {
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.ts.URL
	}
	return urls
}

// runCluster is the -cluster N entry point.
func runCluster(n int, seed int64, requests, concurrency int) *report {
	r := &report{profile: fmt.Sprintf("cluster-%d", n), outcomes: make(map[string]int)}
	clusterSoakPhase(r, n, seed, requests, concurrency)
	clusterDedupPhase(r, n, seed)
	clusterKillPhase(r, n, seed, requests, concurrency)
	clusterDrainPhase(r, n)
	r.summary = "node kill + drain (no injected compute faults in soak)"
	return r
}

// placement is what one response says about how it was answered: its
// X-Cache verdict and, on computed answers, the path the computation took.
type placement struct {
	key     string // the request's name in the phase's mix
	verdict string // X-Cache: hit, miss or dedup
	via     string // X-Cluster-Via: local, forward or fallback
	owner   string // X-Cluster-Owner: the key's ring owner
	node    string // X-Cluster-Node: the entry node that answered
}

func placementOf(key string, h http.Header) placement {
	return placement{
		key:     key,
		verdict: h.Get("X-Cache"),
		via:     h.Get(server.ClusterViaHeader),
		owner:   h.Get(server.ClusterOwnerHeader),
		node:    h.Get(server.ClusterNodeHeader),
	}
}

func (p placement) String() string {
	return fmt.Sprintf("%s at %s (owner %s)", p.key, orDash(p.node), orDash(p.owner))
}

// diagnoseMisses records, beside a compute-at-most-once violation, the
// misses grouped by the path each took and every node's view of its
// peers, so a failing run says which rung of the degradation ladder fired.
func diagnoseMisses(r *report, phase string, misses []placement, nodes []*chaosNode) {
	byPath := make(map[string][]string)
	for _, m := range misses {
		byPath[orDash(m.via)] = append(byPath[orDash(m.via)], m.String())
	}
	for _, path := range sortedKeys(byPath) {
		r.diagnose("%s: %d miss(es) via %s: %s", phase, len(byPath[path]), path, strings.Join(byPath[path], "; "))
	}
	for _, nd := range nodes {
		peers, _ := nd.clu.Stats()["peers"].(map[string]any)
		for _, name := range sortedKeys(peers) {
			view, _ := peers[name].(map[string]any)
			lastErr, _ := view["last_error"].(string)
			r.diagnose("%s: %s sees %s: healthy=%v breaker_open=%v last_error=%q",
				phase, nd.name, name, view["healthy"], view["breaker_open"], lastErr)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- healthy soak: byte identity + compute-at-most-once ----

func clusterSoakPhase(r *report, n int, seed int64, requests, concurrency int) {
	nodes := startChaosCluster(n, nil)
	defer stopChaosCluster(nodes)
	sigs := soakMix()

	type obs struct {
		mu         sync.Mutex
		bodies     map[string][]byte      // guarded by mu: signature -> first 200 body
		misses     map[string]int         // guarded by mu: client-visible miss verdicts
		missPaths  map[string][]placement // guarded by mu: signature -> each miss's placement
		placements map[string]placement   // guarded by mu: request ID -> its 2xx answer's placement
	}
	o := &obs{
		bodies: make(map[string][]byte), misses: make(map[string]int),
		missPaths: make(map[string][]placement), placements: make(map[string]placement),
	}
	observer := func(a client.Attempt) {
		if a.Err != nil {
			return
		}
		if a.Status >= 300 {
			checkErrorBody(r, a.Path, a.Status, a.Header, a.Body)
			return
		}
		o.mu.Lock()
		o.placements[a.RequestID] = placementOf("", a.Header)
		o.mu.Unlock()
	}

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
			// One multi-base client per worker: calls round-robin over
			// every entry node, so the same signature keeps entering the
			// cluster through different doors.
			c := client.NewMulti(nodeURLs(nodes), client.Options{
				MaxRetries:  2,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Seed:        workerSeed,
				Observer:    observer,
			})
			for sig := range work {
				meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
				if err != nil {
					r.count("client-error")
					r.violate("cluster soak: %s: %v", sig.name, err)
					continue
				}
				r.count(fmt.Sprintf("%d %s", meta.Status, orDash(meta.Cache)))
				o.mu.Lock()
				pl := o.placements[meta.RequestID]
				delete(o.placements, meta.RequestID)
				if meta.Cache == "miss" {
					pl.key = sig.name
					o.misses[sig.name]++
					o.missPaths[sig.name] = append(o.missPaths[sig.name], pl)
				}
				if prev, ok := o.bodies[sig.name]; ok {
					if !bytes.Equal(prev, meta.Body) {
						o.mu.Unlock()
						r.violate("cluster soak: %s: body diverged across entry nodes", sig.name)
						continue
					}
				} else {
					o.bodies[sig.name] = meta.Body
				}
				o.mu.Unlock()
			}
		}(seed + int64(w) + 1)
	}
	wg.Wait()
	r.soak = time.Since(start)

	// With every owner healthy, the cluster computed each signature at
	// most once: a second client-visible miss means two nodes ran the
	// same computation.
	var violating []placement
	for _, sig := range sortedKeys(o.misses) {
		if miss := o.misses[sig]; miss > 1 {
			r.violate("cluster soak: %s: %d cluster-wide misses, want 1", sig, miss)
			violating = append(violating, o.missPaths[sig]...)
		}
	}
	if len(violating) > 0 {
		diagnoseMisses(r, "cluster soak", violating, nodes)
	}

	// Explicit byte-identity sweep: every node answers every signature
	// with the recorded bytes, whichever door the request enters.
	for _, nd := range nodes {
		c := client.New(nd.ts.URL, client.Options{MaxRetries: 1})
		for _, sig := range sigs {
			golden, ok := o.bodies[sig.name]
			if !ok {
				continue // signature never drawn in this seed's mix
			}
			meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
			if err != nil {
				r.violate("cluster sweep: %s via %s: %v", sig.name, nd.name, err)
				continue
			}
			if !bytes.Equal(golden, meta.Body) {
				r.violate("cluster sweep: %s via %s: bytes differ from first answer", sig.name, nd.name)
			}
		}
	}
	r.count("byte-identity sweep across nodes")
}

// ---- cross-node dedup burst ----

// clusterDedupPhase fires K identical cold requests spread over every
// entry node at once. Non-owner entries forward into the owner's single
// flight; entry-local twins dedup onto the forward. Cluster-wide that
// must come to exactly one computation: misses==1, dedups+hits==K-1.
func clusterDedupPhase(r *report, n int, seed int64) {
	const k = 12
	// The owner computes under an injected overrun, provably holding the
	// flight open while the burst lands. Every node gets the same
	// profile: only the node that actually computes injects.
	p := faults.Profile{
		Name: "cluster-dedup", LatencyProb: 1, Latency: 15 * time.Millisecond,
		OverrunProb: 1, Overrun: 100 * time.Millisecond,
	}
	injectors := make(map[int]*faults.Injector, n)
	for i := 0; i < n; i++ {
		injectors[i] = faults.NewInjector(p, seed+int64(i))
	}
	nodes := startChaosCluster(n, injectors)
	defer stopChaosCluster(nodes)

	body, _ := json.Marshal(server.PredictRequest{
		Config: server.ConfigSpec{Name: "C9"}, Workload: server.WorkloadSpec{Name: "edge"},
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	verdicts := make(map[string]int)
	var misses []placement
	first := []byte(nil)
	release := make(chan struct{})
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := nodes[i%len(nodes)]
			<-release
			resp, err := nd.ts.Client().Post(nd.ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				r.violate("cluster dedup: transport error via %s: %v", nd.name, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				r.violate("cluster dedup: status %d via %s: %s", resp.StatusCode, nd.name, truncate(b))
				return
			}
			mu.Lock()
			defer mu.Unlock()
			pl := placementOf("C9/edge", resp.Header)
			verdicts[orDash(pl.verdict)]++
			if pl.verdict == "miss" {
				misses = append(misses, pl)
			}
			if first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				r.violate("cluster dedup: concurrent twins got different bodies across entry nodes")
			}
		}(i)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if verdicts["miss"] != 1 {
		r.violate("cluster dedup: %d cluster-wide misses for %d concurrent twins, want exactly 1", verdicts["miss"], k)
		diagnoseMisses(r, "cluster dedup", misses, nodes)
	}
	if verdicts["miss"]+verdicts["dedup"]+verdicts["hit"] != k {
		r.violate("cluster dedup: verdicts %v do not account for %d requests", verdicts, k)
	}
	if verdicts["dedup"] == 0 {
		r.violate("cluster dedup: no request deduplicated onto the in-flight computation")
	}
	r.count(fmt.Sprintf("cluster-dedup: 1 miss + %d dedup + %d hit", verdicts["dedup"], verdicts["hit"]))
}

// ---- node kill mid-soak ----

// clusterKillPhase records golden bodies, then kills one node partway
// through a soak. Clients fail over to surviving entry nodes; keys the
// dead node owned degrade to local compute. Every answer must stay 200
// with the golden bytes, and every error body must honor the contract.
func clusterKillPhase(r *report, n int, seed int64, requests, concurrency int) {
	nodes := startChaosCluster(n, nil)
	defer stopChaosCluster(nodes)
	sigs := soakMix()
	victim := nodes[len(nodes)-1]

	// Golden bodies, recorded through node 0 while everyone is healthy.
	golden := make(map[string][]byte, len(sigs))
	c0 := client.New(nodes[0].ts.URL, client.Options{MaxRetries: 1})
	for _, sig := range sigs {
		meta, err := c0.Post(context.Background(), sig.path, sig.body, nil)
		if err != nil {
			r.violate("cluster kill: warmup %s: %v", sig.name, err)
			return
		}
		golden[sig.name] = meta.Body
	}

	observer := func(a client.Attempt) {
		if a.Err == nil && a.Status >= 300 {
			checkErrorBody(r, a.Path, a.Status, a.Header, a.Body)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	work := make(chan signature, requests)
	for i := 0; i < requests; i++ {
		work <- sigs[rng.Intn(len(sigs))]
	}
	close(work)

	var served atomic.Int64
	killAt := int64(requests / 3)
	killed := make(chan struct{})
	go func() {
		for served.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		// Partition the victim: its listener goes away mid-flight, for
		// clients and peers alike.
		victim.ts.CloseClientConnections()
		victim.ts.Close()
		close(killed)
	}()

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(workerSeed int64) {
			defer wg.Done()
			c := client.NewMulti(nodeURLs(nodes), client.Options{
				MaxRetries:  4, // enough failovers to walk past the dead base
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Seed:        workerSeed,
				Observer:    observer,
			})
			for sig := range work {
				meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
				served.Add(1)
				if err != nil {
					r.count("kill: client-error")
					r.violate("cluster kill: %s: %v", sig.name, err)
					continue
				}
				r.count(fmt.Sprintf("kill: %d %s", meta.Status, orDash(meta.Cache)))
				if !bytes.Equal(golden[sig.name], meta.Body) {
					r.violate("cluster kill: %s: bytes diverged after node death", sig.name)
				}
			}
		}(seed + int64(w) + 100)
	}
	wg.Wait()
	<-killed

	// Post-mortem sweep: every surviving node still answers every
	// signature with the golden bytes (dead-owner keys via fallback).
	for _, nd := range nodes[:len(nodes)-1] {
		c := client.New(nd.ts.URL, client.Options{MaxRetries: 1})
		for _, sig := range sigs {
			meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
			if err != nil {
				r.violate("cluster kill: post-mortem %s via %s: %v", sig.name, nd.name, err)
				continue
			}
			if !bytes.Equal(golden[sig.name], meta.Body) {
				r.violate("cluster kill: post-mortem %s via %s: bytes differ", sig.name, nd.name)
			}
		}
	}
	r.count("kill: post-mortem sweep on survivors")
}

// ---- drain mid-traffic ----

// clusterDrainPhase drains one node while traffic continues elsewhere:
// the draining node completes its accepted in-flight request and fails
// /readyz with the contract, while fresh keys entering healthy nodes
// never see a user-visible 429 — keys owned by the draining node degrade
// to local compute on the entry node.
func clusterDrainPhase(r *report, n int) {
	// Only the drain target computes slowly, so its in-flight request is
	// provably still running when the drain begins.
	p := faults.Profile{Name: "drain-slow", OverrunProb: 1, Overrun: 150 * time.Millisecond}
	nodes := startChaosCluster(n, map[int]*faults.Injector{n - 1: faults.NewInjector(p, 1)})
	defer stopChaosCluster(nodes)
	entry, target := nodes[0], nodes[n-1]

	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(server.ValidateRequest{
			Config: server.ConfigSpec{Name: "C1"}, Workload: "fft", Divisor: 64,
		})
		close(started)
		resp, err := target.ts.Client().Post(target.ts.URL+"/v1/validate", "application/json", bytes.NewReader(body))
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
	time.Sleep(30 * time.Millisecond) // let it reach the 150ms compute overrun
	target.srv.BeginDrain()

	// The draining node's readiness fails with the JSON contract.
	resp, err := target.ts.Client().Get(target.ts.URL + "/readyz")
	if err != nil {
		r.violate("cluster drain: readyz: %v", err)
	} else {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			r.violate("cluster drain: readyz status %d during drain, want 503", resp.StatusCode)
		} else {
			checkErrorBody(r, "/readyz", resp.StatusCode, resp.Header, b)
		}
	}

	// Fresh keys through a healthy entry node: some are owned by the
	// draining target, and must degrade to local compute — a 200, never
	// a user-visible 429.
	for i := 0; i < 24; i++ {
		body, _ := json.Marshal(server.PredictRequest{
			Config:   server.ConfigSpec{Name: "C4"},
			Workload: server.WorkloadSpec{Name: "fft"},
			Delta:    float64(i+1) / 1000,
		})
		resp, err := entry.ts.Client().Post(entry.ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			r.violate("cluster drain: fresh key %d: %v", i, err)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			r.violate("cluster drain: fresh key %d via healthy node: status %d body %s", i, resp.StatusCode, truncate(b))
		}
	}
	r.count("drain: fresh keys via healthy node all 200")

	select {
	case err := <-result:
		if err != nil {
			r.violate("cluster drain: %v", err)
		} else {
			r.count("drain: in-flight on draining node completed 200")
		}
	case <-time.After(30 * time.Second):
		r.violate("cluster drain: in-flight request never completed")
	}
}
