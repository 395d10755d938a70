package main

// The phases. soak, burst and drain run over any node set; shed runs on
// one node under its own faults and kill on a cluster only.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memhier/internal/client"
	"memhier/internal/server"
)

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

// ---- the observer ----

// placement is what one response says about how it was answered: its
// X-Cache verdict and, on computed answers, the path the computation took.
type placement struct {
	key     string // the request's name in the phase's mix
	verdict string // X-Cache: hit, miss or dedup
	via     string // X-Cluster-Via: local, forward or fallback
	owner   string // X-Cluster-Owner: the key's ring owner
	node    string // X-Cluster-Node: the entry node that answered
}

func placementOf(h http.Header) placement {
	return placement{
		verdict: h.Get("X-Cache"),
		via:     h.Get(server.ClusterViaHeader),
		owner:   h.Get(server.ClusterOwnerHeader),
		node:    h.Get(server.ClusterNodeHeader),
	}
}

func (p placement) String() string {
	return fmt.Sprintf("%s at %s (owner %s)", p.key, orDash(p.node), orDash(p.owner))
}

// observer checks what every answer of one phase said: each signature's
// 200 bodies must equal its first, and each miss is kept with the path
// it took for the at-most-once check.
type observer struct {
	r     *report
	phase string
	nodes []*chaosNode

	mu         sync.Mutex
	bodies     map[string][]byte      // guarded by mu: signature -> first 200 body
	misses     map[string][]placement // guarded by mu: signature -> each miss's placement
	verdicts   map[string]int         // guarded by mu: X-Cache verdict -> 200 answers
	placements map[string]placement   // guarded by mu: request ID -> its last 2xx wire answer's placement
}

func newObserver(r *report, phase string, nodes []*chaosNode) *observer {
	return &observer{
		r: r, phase: phase, nodes: nodes,
		bodies: make(map[string][]byte), misses: make(map[string][]placement),
		verdicts: make(map[string]int), placements: make(map[string]placement),
	}
}

// attempt is the clients' Observer. It sees every wire attempt, including
// retried ones — the error contract must hold on each, not just the final
// answer — and keeps each 2xx answer's placement for record.
func (o *observer) attempt(a client.Attempt) {
	if a.Err != nil || a.Status == 0 {
		o.r.count(o.phase + ": transport-error")
		return
	}
	if a.Status >= 300 {
		checkErrorBody(o.r, a.Path, a.Status, a.Header, a.Body)
		return
	}
	o.mu.Lock()
	o.placements[a.RequestID] = placementOf(a.Header)
	o.mu.Unlock()
}

// record checks one 200 answer to signature sig.
func (o *observer) record(sig string, pl placement, body []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	pl.key = sig
	o.verdicts[orDash(pl.verdict)]++
	if pl.verdict == "miss" {
		o.misses[sig] = append(o.misses[sig], pl)
	}
	if prev, ok := o.bodies[sig]; !ok {
		o.bodies[sig] = body
	} else if !bytes.Equal(prev, body) {
		o.r.violate("%s: %s: 200 body diverged from the first 200 (cache identity broken)", o.phase, sig)
	}
}

// computedAtMostOnce checks that no signature was computed successfully
// twice. On a cluster the relayed verdict is the owner's, so a second
// miss means two nodes ran the same computation.
func (o *observer) computedAtMostOnce() {
	o.mu.Lock()
	defer o.mu.Unlock()
	var violating []placement
	for _, sig := range sortedKeys(o.misses) {
		if n := len(o.misses[sig]); n > 1 {
			o.r.violate("%s: %s: computed successfully %d times (want at most one 200 miss)", o.phase, sig, n)
			violating = append(violating, o.misses[sig]...)
		}
	}
	if len(violating) > 0 {
		o.diagnoseMisses(violating)
	}
}

// diagnoseMisses records, beside a compute-at-most-once violation, the
// misses grouped by the path each took and every node's view of its
// peers, so a failing run says which rung of the degradation ladder fired.
// failed_probes keeps a peer that was down for one probe round visible
// after it recovered.
func (o *observer) diagnoseMisses(misses []placement) {
	byPath := make(map[string][]string)
	for _, m := range misses {
		byPath[orDash(m.via)] = append(byPath[orDash(m.via)], m.String())
	}
	for _, path := range sortedKeys(byPath) {
		o.r.diagnose("%s: %d miss(es) via %s: %s", o.phase, len(byPath[path]), path, strings.Join(byPath[path], "; "))
	}
	for _, nd := range o.nodes {
		if nd.clu == nil {
			continue
		}
		peers, _ := nd.clu.Stats()["peers"].(map[string]any)
		for _, name := range sortedKeys(peers) {
			view, _ := peers[name].(map[string]any)
			lastErr, _ := view["last_error"].(string)
			o.r.diagnose("%s: %s sees %s: healthy=%v failed_probes=%v breaker_open=%v last_error=%q",
				o.phase, nd.name, name, view["healthy"], view["failed_probes"], view["breaker_open"], lastErr)
		}
	}
}

// drive sends requests seeded draws from the soak mix through concurrency
// workers, each with its own client on every node (a multi-base client
// round-robins, so one signature keeps entering through different
// doors), and records every answer. served, when set, runs after each
// call.
func (o *observer) drive(seed int64, requests, concurrency int, opts client.Options, served func()) {
	sigs := soakMix()
	rng := rand.New(rand.NewSource(seed))
	work := make(chan signature, requests)
	for i := 0; i < requests; i++ {
		work <- sigs[rng.Intn(len(sigs))]
	}
	close(work)
	urls := make([]string, len(o.nodes))
	for i, nd := range o.nodes {
		urls[i] = nd.ts.URL
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(workerSeed int64) {
			defer wg.Done()
			opts := opts
			opts.Seed, opts.Observer = workerSeed, o.attempt
			c := client.NewMulti(urls, opts)
			for sig := range work {
				meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
				if served != nil {
					served()
				}
				if err != nil {
					o.failedCall(sig, err)
					continue
				}
				o.r.count(fmt.Sprintf("%s: %d %s", o.phase, meta.Status, orDash(meta.Cache)))
				o.mu.Lock()
				pl := o.placements[meta.RequestID]
				delete(o.placements, meta.RequestID)
				o.mu.Unlock()
				o.record(sig.name, pl, meta.Body)
			}
		}(seed + int64(w) + 1)
	}
	wg.Wait()
}

// failedCall counts a call that failed, by class. Faults are injected
// only on a single node, so on a cluster a failed call is a violation.
func (o *observer) failedCall(sig signature, err error) {
	var apiErr *client.APIError
	switch {
	case errors.Is(err, client.ErrCircuitOpen):
		o.r.count(o.phase + ": breaker-open")
	case errors.As(err, &apiErr):
		o.r.count(fmt.Sprintf("%s: %d %s (final)", o.phase, apiErr.Status, apiErr.Code))
	default:
		o.r.count(o.phase + ": client-error")
	}
	if len(o.nodes) > 1 {
		o.r.violate("%s: %s: %v", o.phase, sig.name, err)
	}
}

// sweep asks each of nodes once more for every recorded signature: each
// must answer the recorded bytes, whichever door the request enters.
func (o *observer) sweep(nodes []*chaosNode) {
	o.mu.Lock()
	recorded := make(map[string][]byte, len(o.bodies))
	for sig, body := range o.bodies {
		recorded[sig] = body
	}
	o.mu.Unlock()
	for _, nd := range nodes {
		c := client.New(nd.ts.URL, client.Options{MaxRetries: 1})
		for _, sig := range soakMix() {
			want, ok := recorded[sig.name]
			if !ok {
				continue // signature never drawn in this seed's mix
			}
			meta, err := c.Post(context.Background(), sig.path, sig.body, nil)
			if err != nil {
				o.r.violate("%s sweep: %s via %s: %v", o.phase, sig.name, nd.name, err)
			} else if !bytes.Equal(want, meta.Body) {
				o.r.violate("%s sweep: %s via %s: bytes differ from the recorded answer", o.phase, sig.name, nd.name)
			}
		}
	}
	o.r.count(o.phase + ": byte-identity sweep across nodes")
}

// ---- the phases ----

// soak drives the seeded mix at the nodes: byte identity and
// compute-at-most-once. One node runs under the profile's faults, so its
// clients retry more and carry a breaker that opens and recovers within
// the soak; a cluster soak then sweeps every node for byte identity.
func soak(r *report, nodes []*chaosNode, seed int64, requests, concurrency int) {
	o := newObserver(r, "soak", nodes)
	opts := client.Options{MaxRetries: 2, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	if len(nodes) == 1 {
		opts = client.Options{
			HTTPClient:       nodes[0].ts.Client(),
			MaxRetries:       3,
			BaseBackoff:      2 * time.Millisecond,
			MaxBackoff:       20 * time.Millisecond,
			RetryAfterCap:    25 * time.Millisecond,
			FailureThreshold: 8,
			OpenFor:          25 * time.Millisecond,
		}
	}
	start := time.Now()
	o.drive(seed, requests, concurrency, opts, nil)
	r.soak = time.Since(start)
	o.computedAtMostOnce()
	if len(nodes) > 1 {
		o.sweep(nodes)
	}
}

// burst fires identical cold twins at once, spread over every entry node,
// at nodes whose faults inject entry latency and a compute overrun, so
// the flight is provably held open while the burst lands. Exactly one
// twin computes; every other one dedups onto its flight (or a forward
// into it) or hits. One node's metrics must agree with the verdicts.
func burst(r *report, nodes []*chaosNode) {
	const twins = 12
	const key = "predict/C9/edge"
	o := newObserver(r, "twin burst", nodes)
	req := server.PredictRequest{Config: server.ConfigSpec{Name: "C9"}, Workload: server.WorkloadSpec{Name: "edge"}}
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < twins; i++ {
		wg.Add(1)
		go func(nd *chaosNode) {
			defer wg.Done()
			<-release
			resp, body, err := post(nd, "/v1/predict", req)
			switch {
			case err != nil:
				r.violate("twin burst: transport error via %s: %v", nd.name, err)
			case resp.StatusCode != http.StatusOK:
				r.violate("twin burst: status %d via %s: %s", resp.StatusCode, nd.name, truncate(body))
			default:
				o.record(key, placementOf(resp.Header), body)
			}
		}(nodes[i%len(nodes)])
	}
	close(release)
	wg.Wait()

	o.computedAtMostOnce()
	o.mu.Lock()
	defer o.mu.Unlock()
	v := o.verdicts
	if v["miss"] == 0 {
		r.violate("twin burst: no miss for %d cold twins, want exactly 1", twins)
	}
	if v["miss"]+v["dedup"]+v["hit"] != twins {
		r.violate("twin burst: verdicts %v do not account for %d twins", v, twins)
	}
	if v["dedup"] == 0 {
		r.violate("twin burst: no twin deduplicated onto the in-flight computation")
	}
	if len(nodes) == 1 {
		m := nodes[0].srv.Metrics()
		misses, _ := m["cache_misses"].(int64)
		dedup, _ := m["dedup_waits"].(int64)
		hits, _ := m["cache_hits"].(int64)
		if misses != int64(v["miss"]) || dedup != int64(v["dedup"]) || hits != int64(v["hit"]) {
			r.violate("twin burst: metrics misses=%d dedup=%d hits=%d disagree with verdicts %v", misses, dedup, hits, v)
		}
	}
	r.count(fmt.Sprintf("twin burst: %d miss + %d dedup + %d hit", v["miss"], v["dedup"], v["hit"]))
}

// shed floods a one-worker server (default queue of two) with distinct
// simulation requests under an injected overrun: everything beyond the
// accepted simulations must shed with the full 429 contract, and at
// least one request must still succeed.
func shed(r *report, nd *chaosNode) {
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
				resp, body, err := post(nd, "/v1/validate", server.ValidateRequest{
					Config: server.ConfigSpec{Name: "C4"}, Workload: kern, Divisor: div,
				})
				if err != nil {
					r.violate("shed: transport error: %v", err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200++
				case http.StatusTooManyRequests:
					shed++
					checkErrorBody(r, "/v1/validate", resp.StatusCode, resp.Header, body)
				default:
					r.violate("shed: unexpected status %d body %s", resp.StatusCode, truncate(body))
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

// kill records every signature's bytes through node 0, then partitions
// the last node a third of the way through a soak. Clients fail over to
// surviving entry nodes; keys the dead node owned degrade to local
// compute. Every answer must stay 200 with the recorded bytes, and every
// error body must honor the contract — during the soak and in a sweep of
// the survivors afterwards.
func kill(r *report, nodes []*chaosNode, seed int64, requests, concurrency int) {
	o := newObserver(r, "kill", nodes)
	c0 := client.New(nodes[0].ts.URL, client.Options{MaxRetries: 1})
	for _, sig := range soakMix() {
		meta, err := c0.Post(context.Background(), sig.path, sig.body, nil)
		if err != nil {
			r.violate("kill: warmup %s: %v", sig.name, err)
			return
		}
		o.record(sig.name, placement{}, meta.Body)
	}

	victim := nodes[len(nodes)-1]
	var served atomic.Int64
	killed := make(chan struct{})
	go func() {
		for served.Load() < int64(requests/3) {
			time.Sleep(time.Millisecond)
		}
		// Its listener goes away mid-flight, for clients and peers alike.
		victim.ts.CloseClientConnections()
		victim.ts.Close()
		close(killed)
	}()
	opts := client.Options{
		MaxRetries:  4, // enough failovers to walk past the dead base
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
	o.drive(seed+99, requests, concurrency, opts, func() { served.Add(1) })
	<-killed
	o.sweep(nodes[:len(nodes)-1])
}

// drain drains the last node while its accepted slow request is in
// flight: that request still completes with 200, and the node fails
// /readyz with the JSON contract. On a cluster, fresh keys entering a
// healthy node meanwhile never see a user-visible 429: keys the draining
// node owns degrade to local compute on the entry node.
func drain(r *report, nodes []*chaosNode) {
	entry, target := nodes[0], nodes[len(nodes)-1]
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		resp, body, err := post(target, "/v1/validate", server.ValidateRequest{
			Config: server.ConfigSpec{Name: "C1"}, Workload: "fft", Divisor: 64,
		})
		switch {
		case err != nil:
			result <- fmt.Errorf("in-flight request: %w", err)
		case resp.StatusCode != http.StatusOK:
			result <- fmt.Errorf("in-flight request finished %d: %s", resp.StatusCode, truncate(body))
		default:
			result <- nil
		}
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let it reach the 150ms compute overrun
	target.srv.BeginDrain()

	resp, err := target.ts.Client().Get(target.ts.URL + "/readyz")
	if err != nil {
		r.violate("drain: readyz: %v", err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			r.violate("drain: readyz status %d during drain, want 503", resp.StatusCode)
		} else {
			checkErrorBody(r, "/readyz", resp.StatusCode, resp.Header, body)
		}
	}

	if len(nodes) > 1 {
		for i := 0; i < 24; i++ {
			resp, body, err := post(entry, "/v1/predict", server.PredictRequest{
				Config:   server.ConfigSpec{Name: "C4"},
				Workload: server.WorkloadSpec{Name: "fft"},
				Delta:    float64(i+1) / 1000,
			})
			if err != nil {
				r.violate("drain: fresh key %d: %v", i, err)
			} else if resp.StatusCode != http.StatusOK {
				r.violate("drain: fresh key %d via healthy node: status %d body %s", i, resp.StatusCode, truncate(body))
			}
		}
		r.count("drain: fresh keys via healthy node all 200")
	}

	select {
	case err := <-result:
		if err != nil {
			r.violate("drain: %v", err)
		} else {
			r.count("drain: in-flight on draining node completed 200")
		}
	case <-time.After(30 * time.Second):
		r.violate("drain: in-flight request never completed")
	}
}
