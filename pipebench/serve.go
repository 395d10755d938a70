package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memhier/internal/cluster"
	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/server"
)

// The serve mix: 85% predicts on the hot set, 15% on never-repeated
// custom platforms, and one cold sweep in place of every 500th request.
const (
	hotShare   = 0.85
	sweepEvery = 500
	conns      = 2 // closed-loop clients, one per entry node
)

var (
	// hotDeltas × (C1–C15 and the modern presets) × the five paper
	// workloads is the 1,020-key hot set.
	hotDeltas    = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24}
	sweepBudgets = []float64{5000, 12000, 20000, 40000}
)

// sweepPoints is the size of a sweep's grid: C1–C15 × five workloads, plus
// one budget line per workload.
var sweepPoints = len(machine.Catalog())*len(core.PaperWorkloadNames()) + len(core.PaperWorkloadNames())

// hotSet returns the hot predict bodies.
func hotSet() [][]byte {
	var names []string
	for _, c := range machine.Catalog() {
		names = append(names, c.Name)
	}
	for _, c := range machine.ModernCatalog() {
		names = append(names, c.Name)
	}
	var bodies [][]byte
	for _, cfg := range names {
		for _, wl := range core.PaperWorkloadNames() {
			for _, d := range hotDeltas {
				b, _ := json.Marshal(server.PredictRequest{
					Config: server.ConfigSpec{Name: cfg}, Workload: server.WorkloadSpec{Name: wl}, Delta: d,
				})
				bodies = append(bodies, b)
			}
		}
	}
	return bodies
}

// request is one generated request.
type request struct {
	path   string
	body   []byte
	hot    int                    // index into the hot set, or -1
	custom *server.PredictRequest // a custom-platform predict, else nil
}

// generator is one client's seeded request sequence.
type generator struct {
	rng    *rand.Rand
	client int
	n      int
	hot    [][]byte
}

func newGenerator(seed int64, client int, hot [][]byte) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), client: client, hot: hot}
}

// unique returns a value no other request of this run shares.
func (g *generator) unique() float64 { return float64(g.n*conns + g.client) }

func (g *generator) next() request {
	g.n++
	if g.n%sweepEvery == 0 {
		var req server.SweepRequest
		for _, c := range machine.Catalog() {
			req.Configs = append(req.Configs, server.ConfigSpec{Name: c.Name})
		}
		for _, wl := range core.PaperWorkloadNames() {
			req.Workloads = append(req.Workloads, server.WorkloadSpec{Name: wl})
		}
		req.Budgets = sweepBudgets
		req.Delta = 0.5 + g.unique()*1e-9 // never cached
		b, _ := json.Marshal(req)
		return request{path: "/v1/sweep", body: b, hot: -1}
	}
	if g.rng.Float64() < hotShare {
		i := g.rng.Intn(len(g.hot))
		return request{path: "/v1/predict", body: g.hot[i], hot: i}
	}
	return g.customPredict()
}

// customPredict draws a platform; its memory size is unique to the
// request, so the platform never repeats and the key always misses.
func (g *generator) customPredict() request {
	spec := server.ConfigSpec{
		CacheBytes:  int64(128<<10) << g.rng.Intn(4),
		MemoryBytes: int64(32<<20)<<g.rng.Intn(3) + 64*int64(g.unique()),
	}
	nets := []string{"10", "100", "atm"}
	switch g.rng.Intn(3) {
	case 0:
		spec.Kind, spec.Procs = "smp", 2<<g.rng.Intn(3)
	case 1:
		spec.Kind, spec.Machines, spec.Net = "ws", 2<<g.rng.Intn(3), nets[g.rng.Intn(3)]
	default:
		spec.Kind, spec.Machines, spec.Procs, spec.Net = "csmp", 2<<g.rng.Intn(2), 2<<g.rng.Intn(2), nets[g.rng.Intn(3)]
	}
	names := core.PaperWorkloadNames()
	req := &server.PredictRequest{Config: spec, Workload: server.WorkloadSpec{Name: names[g.rng.Intn(len(names))]}}
	b, _ := json.Marshal(req)
	return request{path: "/v1/predict", body: b, hot: -1, custom: req}
}

// tracer records serve's spans while on. Spans of one request share its
// X-Request-ID; parents registers the open span a later hop nests under.
type tracer struct {
	rec                 atomic.Pointer[Recorder] // nil while tracing is off
	parents             sync.Map                 // "c:", "h:" or "f:" + request ID -> span ID
	forwards, fallbacks atomic.Int64
}

func (t *tracer) parent(key string) int64 {
	if v, ok := t.parents.Load(key); ok {
		return v.(int64)
	}
	return 0
}

// handler wraps a node's handler with a span per request: server.handler
// under the client's span on the entry node, server.handler.owner under
// the forward span on the owner.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Request-ID")
		if r.Header.Get(server.ForwardedHeader) != "" {
			sp := rec.Start(id, "server.handler.owner", t.parent("f:"+id))
			next.ServeHTTP(w, r)
			sp.End()
			return
		}
		sp := rec.Start(id, "server.handler", t.parent("c:"+id))
		t.parents.Store("h:"+id, sp.ID())
		next.ServeHTTP(w, r)
		t.parents.Delete("h:" + id)
		sp.End()
	})
}

// timedForwarder is the server.PeerForwarder handed to server.New in a
// traced run: the cluster's forwarder with a span around each Forward.
type timedForwarder struct {
	server.PeerForwarder
	t *tracer
}

func (f timedForwarder) Forward(ctx context.Context, peer, path, requestID string, body []byte) (server.ForwardResult, error) {
	rec := f.t.rec.Load()
	if rec == nil {
		return f.PeerForwarder.Forward(ctx, peer, path, requestID, body)
	}
	sp := rec.Start(requestID, "cluster.forward", f.t.parent("h:"+requestID))
	f.t.parents.Store("f:"+requestID, sp.ID())
	res, err := f.PeerForwarder.Forward(ctx, peer, path, requestID, body)
	f.t.parents.Delete("f:" + requestID)
	sp.End()
	f.t.forwards.Add(1)
	if err != nil {
		f.t.fallbacks.Add(1)
	}
	return res, err
}

// node is one in-process chc-serve member on a loopback listener.
type node struct {
	url  string
	srv  *server.Server
	cl   *cluster.Cluster
	hs   *http.Server
	done chan struct{} // closed when Serve returns
}

// startCluster starts two default-config nodes joined by cluster.New. A
// non-nil tracer wraps each node's handler and forwarder.
func startCluster(t *tracer) ([]*node, error) {
	lns := make([]net.Listener, conns)
	peers := map[string]string{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[fmt.Sprintf("n%d", i)] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, conns)
	for i, ln := range lns {
		name := fmt.Sprintf("n%d", i)
		cl, err := cluster.New(cluster.Config{Self: name, Peers: peers})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopCluster(nodes[:i])
			return nil, err
		}
		var fwd server.PeerForwarder = cl
		if t != nil {
			fwd = timedForwarder{cl, t}
		}
		srv := server.New(server.Config{Forwarder: fwd})
		h := srv.Handler()
		if t != nil {
			h = t.handler(h)
		}
		nd := &node{url: peers[name], srv: srv, cl: cl, hs: &http.Server{Handler: h}, done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(nd.done)
			if err := nd.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "pipebench: serve:", err)
			}
		}(ln)
		nodes[i] = nd
	}
	return nodes, nil
}

// stopCluster closes every node and waits for its server to return.
func stopCluster(nodes []*node) {
	for _, nd := range nodes {
		nd.hs.Close()
		<-nd.done
		nd.srv.Close()
		nd.cl.Stop()
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// post sends one request and reads the answer to its last byte.
func post(c *http.Client, url, id string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// warm sends every hot key to every node, one client per node, and
// returns the bodies; both nodes must answer each key with the same bytes.
func warm(nodes []*node, hot [][]byte) ([][]byte, error) {
	bodies := make([][][]byte, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			bodies[i] = make([][]byte, len(hot))
			for k, b := range hot {
				status, _, got, err := post(c, nd.url+"/v1/predict", fmt.Sprintf("warm-%d-%d", i, k), b)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, got)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warming hot key %d on node %d: %w", k, i, err)
					return
				}
				bodies[i][k] = got
			}
		}(i, nd)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for k := range hot {
		for i := 1; i < len(nodes); i++ {
			if !bytes.Equal(bodies[i][k], bodies[0][k]) {
				return nil, fmt.Errorf("hot key %d: node %d answered different bytes than node 0", k, i)
			}
		}
	}
	return bodies[0], nil
}

// loadStats is what one closed-loop phase measured.
type loadStats struct {
	attempted, failed, requests int
	predictMs, hitMs, sweepMs   []float64
	hits                        int
	elapsed                     time.Duration
	rt                          runtimeCounters
}

// checkAnswer decides whether a request's answer is correct.
func checkAnswer(rq request, status int, body []byte, warmBodies [][]byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("%s: status %d: %.200s", rq.path, status, body)
	}
	if rq.hot >= 0 && !bytes.Equal(body, warmBodies[rq.hot]) {
		return fmt.Errorf("hot key %d: body differs from its warm-up bytes", rq.hot)
	}
	if rq.path == "/v1/sweep" {
		return checkSweep(body)
	}
	return nil
}

// checkSweep requires a complete, error-free stream with every point.
func checkSweep(body []byte) error {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var sum server.SweepSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Kind != "summary" {
		return fmt.Errorf("sweep: no summary trailer")
	}
	switch {
	case !sum.Complete:
		return fmt.Errorf("sweep: trailer says incomplete")
	case sum.Points != sweepPoints || sum.Emitted != sweepPoints || len(lines)-1 != sweepPoints:
		return fmt.Errorf("sweep: %d points, %d emitted, %d lines; want %d", sum.Points, sum.Emitted, len(lines)-1, sweepPoints)
	case sum.Errors != 0:
		return fmt.Errorf("sweep: %d point errors", sum.Errors)
	}
	return nil
}

// runLoad drives the closed loop for d: one client per entry node, each
// sending its next request when the previous answer is fully read.
func runLoad(nodes []*node, gens []*generator, warmBodies [][]byte, t *tracer, phase string, d time.Duration) loadStats {
	per := make([]loadStats, conns)
	var wg sync.WaitGroup
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &per[i]
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Since(start) < d {
				rq := gens[i].next()
				id := fmt.Sprintf("%s-%d-%d", phase, i, gens[i].n)
				var rec *Recorder
				if t != nil {
					rec = t.rec.Load()
				}
				sp := rec.Start(id, "serve.request", 0)
				if rec != nil {
					t.parents.Store("c:"+id, sp.ID())
				}
				t0 := time.Now()
				status, hdr, body, err := post(c, nodes[i].url+rq.path, id, rq.body)
				lat := ms(time.Since(t0))
				sp.End()
				if rec != nil {
					t.parents.Delete("c:" + id)
				}
				if err == nil {
					err = checkAnswer(rq, status, body, warmBodies)
				}
				st.attempted++
				if err != nil {
					st.failed++
					if st.failed <= 5 {
						fmt.Fprintln(os.Stderr, "pipebench: failed op:", err)
					}
					continue
				}
				st.requests++
				if rq.path == "/v1/sweep" {
					st.sweepMs = append(st.sweepMs, lat)
					continue
				}
				st.predictMs = append(st.predictMs, lat)
				if hdr.Get("X-Cache") == "hit" {
					st.hits++
					if rq.hot >= 0 {
						st.hitMs = append(st.hitMs, lat)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	total := loadStats{elapsed: time.Since(start), rt: readRuntime().minus(rt0)}
	for _, st := range per {
		total.attempted += st.attempted
		total.failed += st.failed
		total.requests += st.requests
		total.hits += st.hits
		total.predictMs = append(total.predictMs, st.predictMs...)
		total.hitMs = append(total.hitMs, st.hitMs...)
		total.sweepMs = append(total.sweepMs, st.sweepMs...)
	}
	return total
}

// serveSetup starts the cluster and warms the hot set on both nodes.
func serveSetup(t *tracer, hot [][]byte) ([]*node, [][]byte, error) {
	nodes, err := startCluster(t)
	if err != nil {
		return nil, nil, err
	}
	bodies, err := warm(nodes, hot)
	if err != nil {
		stopCluster(nodes)
		return nil, nil, err
	}
	return nodes, bodies, nil
}

func runServe(p params) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	hot := hotSet()
	var t *tracer
	if p.trace {
		t = &tracer{}
	}
	var nodes []*node
	var warmBodies [][]byte
	for i := 0; i < setupRepeats; i++ {
		if nodes != nil {
			stopCluster(nodes)
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		var err error
		nodes, warmBodies, err = serveSetup(t, hot)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer stopCluster(nodes)

	gens := make([]*generator, conns)
	for i := range gens {
		gens[i] = newGenerator(p.seed, i, hot)
	}
	run := p.seconds
	if p.trace {
		run /= 2 // the first half untraced, the second traced
	}
	resetPeakRSS()
	st := runLoad(nodes, gens, warmBodies, t, "u", run)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.rssMiB = rss
	o.attempted += st.attempted
	o.failed += st.failed
	o.ops, o.loop, o.rt, o.opMs = st.requests, st.elapsed, st.rt, st.predictMs

	o.notes = []note{
		{"throughput_rps", float64(st.requests) / st.elapsed.Seconds(), "req/s", st.requests},
		{"hit_ratio", float64(st.hits) / float64(len(st.predictMs)), "", len(st.predictMs)},
	}
	if p99, err := percentile(st.predictMs, 99); err == nil {
		o.notes = append(o.notes, note{"p99_ms", p99.Value, "ms", p99.N})
	} else {
		fmt.Fprintln(os.Stderr, "pipebench: p99_ms:", err)
	}
	if sweep, err := median(st.sweepMs); err == nil {
		o.notes = append(o.notes, note{"sweep_ms", sweep.Value, "ms", sweep.N})
	} else {
		fmt.Fprintln(os.Stderr, "pipebench: sweep_ms:", err)
	}
	if !p.trace {
		return o, nil
	}
	return o, traceServe(p, o, st, nodes, gens, warmBodies, t, run, hot)
}

// traceServe finishes serve's traced run: a traced half of the loop, the
// handler replayed in process on a single node, and probes of the model
// and the budget optimizer.
func traceServe(p params, o *outcome, untraced loadStats, nodes []*node, gens []*generator, warmBodies [][]byte, t *tracer, run time.Duration, hot [][]byte) error {
	rec := NewRecorder()
	t.rec.Store(rec)
	st := runLoad(nodes, gens, warmBodies, t, "t", run)
	t.rec.Store(nil)
	o.attempted += st.attempted
	o.failed += st.failed
	o.ops += st.requests
	o.loop += st.elapsed
	o.rt.allocBytes += st.rt.allocBytes
	o.rt.gcCycles += st.rt.gcCycles
	o.rt.pauseNs += st.rt.pauseNs

	spans := rec.Spans()
	b := buildBudget("serve", "serve.request", spans)
	b.Traced, b.Untraced = medianDuration(st.predictMs), medianDuration(untraced.predictMs)
	o.budget = &b
	o.layers["server.hit_ratio"] = float64(st.hits) / float64(len(st.predictMs))
	fwd := durationsMs(spans, "cluster.forward")
	if q, err := median(fwd); err == nil {
		o.layers["cluster.forward_us"] = q.Value * 1000
	}
	o.layers["cluster.forwards"] = float64(t.forwards.Load())
	o.layers["cluster.forward_share"] = float64(t.forwards.Load()) / float64(st.requests)
	o.layers["cluster.fallbacks"] = float64(t.fallbacks.Load())

	hit, miss, err := replayHandler(p.seed, hot, warmBodies)
	if err != nil {
		return err
	}
	o.layers["server.handler_us.hit"] = hit * 1000
	o.layers["server.handler_us.miss"] = miss * 1000
	if q, err := median(untraced.hitMs); err == nil {
		o.layers["server.http_us"] = (q.Value - hit) * 1000
	}

	// Probes: the model on the replay's custom platforms, the optimizer on
	// the sweep's budgets.
	g := newGenerator(p.seed, 0, hot)
	var evals []float64
	for len(evals) < 2000 {
		rq := g.next()
		if rq.custom == nil {
			continue
		}
		cfg, err := rq.custom.Config.Resolve()
		if err != nil {
			return err
		}
		wl, err := experiments.ResolveWorkload(rq.custom.Workload.Name, false)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = core.Evaluate(cfg, wl, core.Options{CoherenceAdjust: rq.custom.Delta})
		evals = append(evals, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	q, _ := median(evals)
	o.layers["core.evaluate_us"] = q.Value * 1000
	o.layers["core.evaluate_calls"] = float64(len(evals))
	t0 := time.Now()
	for _, name := range core.PaperWorkloadNames() {
		wl, err := experiments.ResolveWorkload(name, false)
		if err != nil {
			return err
		}
		if _, _, err := cost.OptimizeBudgets(sweepBudgets, wl, cost.DefaultCatalog(), cost.DefaultSpace(), core.Options{CoherenceAdjust: 0.5}); err != nil {
			return err
		}
	}
	o.layers["cost.optimize_ms"] = ms(time.Since(t0))
	return nil
}

// replayHandler serves the start of client 0's request sequence in
// process against one warmed node and returns the median handler time of
// hits and of misses, in ms.
func replayHandler(seed int64, hot, warmBodies [][]byte) (float64, float64, error) {
	srv := server.New(server.Config{})
	defer srv.Close()
	h := srv.Handler()
	serve := func(rq request) (*httptest.ResponseRecorder, time.Duration) {
		r := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		return w, time.Since(t0)
	}
	for k, b := range hot {
		if w, _ := serve(request{path: "/v1/predict", body: b, hot: k}); w.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process warm-up of hot key %d: status %d", k, w.Code)
		}
	}
	g := newGenerator(seed, 0, hot)
	var hits, misses []float64
	for len(hits)+len(misses) < 20000 {
		rq := g.next()
		if rq.path != "/v1/predict" {
			continue
		}
		w, d := serve(rq)
		if err := checkAnswer(rq, w.Code, w.Body.Bytes(), warmBodies); err != nil {
			return 0, 0, fmt.Errorf("in-process replay: %w", err)
		}
		if w.Header().Get("X-Cache") == "hit" {
			hits = append(hits, ms(d))
		} else {
			misses = append(misses, ms(d))
		}
	}
	hit, err := median(hits)
	if err != nil {
		return 0, 0, err
	}
	miss, err := median(misses)
	if err != nil {
		return 0, 0, err
	}
	return hit.Value, miss.Value, nil
}
