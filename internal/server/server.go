package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/experiments"
	"memhier/internal/faults"
	"memhier/internal/locality"
	"memhier/internal/machine"
	"memhier/internal/queueing"
	"memhier/internal/sim/backend"
	"memhier/internal/workloads"
)

// Config tunes the service. The zero value selects production defaults.
type Config struct {
	// CacheEntries bounds the result cache (default 4096 responses,
	// spread over CacheShards shards, default 16).
	CacheEntries int
	CacheShards  int
	// SimWorkers bounds concurrent simulations (default NumCPU);
	// SimQueueDepth bounds simulations waiting for a worker (default
	// 2×SimWorkers). Submissions beyond workers+queue are shed with 429.
	SimWorkers    int
	SimQueueDepth int
	// RequestTimeout is the context deadline of the analytical endpoints
	// (default 30s); SimTimeout is the deadline of /v1/validate (default
	// 5m — a scaled-down simulation takes seconds, paper-scale minutes).
	RequestTimeout time.Duration
	SimTimeout     time.Duration
	// RetryAfter is the client back-off hint on shed requests (default 2s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// SweepWorkers bounds the per-sweep evaluation workers (default
	// NumCPU); SweepConcurrency bounds concurrently streaming sweeps —
	// a whole grid is one admission unit, and grids beyond the limit are
	// shed with 429 (default 2). SweepTimeout is the grid deadline
	// (default 2m), MaxSweepPoints the largest accepted grid (default
	// 4096 points).
	SweepWorkers     int
	SweepConcurrency int
	SweepTimeout     time.Duration
	MaxSweepPoints   int
	// Faults optionally injects faults at the instrumented sites (chaos
	// testing; see internal/faults). Nil — the default — disables
	// injection entirely: the hot path pays one nil check.
	Faults faults.Hook
	// Forwarder enables cluster mode: cache misses for keys owned by a
	// peer are proxied to that peer (see cluster.go). Nil — the default —
	// is single-node operation with no extra cost on the hot path.
	Forwarder PeerForwarder
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.NumCPU()
	}
	if c.SimQueueDepth < 0 {
		c.SimQueueDepth = 0
	} else if c.SimQueueDepth == 0 {
		c.SimQueueDepth = 2 * c.SimWorkers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SimTimeout <= 0 {
		c.SimTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.NumCPU()
	}
	if c.SweepConcurrency <= 0 {
		c.SweepConcurrency = 2
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 2 * time.Minute
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	return c
}

// Server is the chc-serve service: handlers, result cache, simulation
// worker pool, and operational state.
type Server struct {
	cfg       Config
	cache     *resultCache
	pool      *workerPool
	metrics   *serverMetrics
	mux       *http.ServeMux
	faults    faults.Hook   // nil = no injection
	forwarder PeerForwarder // nil = single-node mode
	// forwardPaths maps each cached route's name — the prefix of its cache
	// keys — to the path its canonical bodies replay against (cluster.go).
	forwardPaths map[string]string
	draining     atomic.Bool
	// sweepSem admits whole-grid sweeps: one token per streaming sweep,
	// acquired non-blocking so excess grids shed immediately with 429.
	sweepSem chan struct{}

	// Computation seams, overridable in tests to control timing and
	// failure injection; production values are the real packages.
	evaluate func(machine.Config, core.Workload, core.Options) (core.Result, error)
	simulate func(cfg machine.Config, kernel string) (backend.RunResult, error)
	resolve  func(name string, measured bool) (core.Workload, error)
}

// predictRoute names /v1/predict. Sweep and batch points key under it
// too, so a grid point and the equivalent single request share one cache
// entry, and a grid line carrying such an answer is of this kind.
const predictRoute = "predict"

// route is one row of the route table. Every endpoint is declared once,
// in New: the mux, the metrics vocabulary and the forwardable cache-key
// prefixes are all derived from the table.
type route struct {
	name string // metrics name and fault label; a cached route's key prefix
	path string
	api  bool // an API endpoint: entry-site faults apply
	// cached marks a route answered through the result cache under keys
	// "name\x00canonicalJSON" whose JSON is itself a request that replays
	// against path and resolves back to the same key — so in cluster mode
	// such keys forward to their ring owner (cachedRoute sets it).
	cached bool
	serve  func(w http.ResponseWriter, r *http.Request, name string)
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		cache:        newResultCache(cfg.CacheEntries, cfg.CacheShards),
		pool:         newWorkerPool(cfg.SimWorkers, cfg.SimQueueDepth),
		sweepSem:     make(chan struct{}, cfg.SweepConcurrency),
		faults:       cfg.Faults,
		forwarder:    cfg.Forwarder,
		forwardPaths: make(map[string]string),
		evaluate:     core.Evaluate,
		simulate:     runSimulation,
		resolve:      experiments.ResolveWorkload,
	}
	s.metrics = newServerMetrics(s.pool.depth, s.cache.len)
	if s.forwarder != nil {
		s.metrics.cluster = s.forwarder.Stats
	}
	routes := []route{
		cachedRoute(s, predictRoute, "/v1/predict", cfg.RequestTimeout, s.preparePredict),
		{name: "sweep", path: "/v1/sweep", api: true, serve: s.handleSweep},
		{name: "batch", path: "/v1/batch", api: true, serve: s.handleBatch},
		cachedRoute(s, "optimize", "/v1/optimize", cfg.RequestTimeout, s.prepareOptimize),
		cachedRoute(s, "advise", "/v1/advise", cfg.RequestTimeout, s.prepareAdvise),
		cachedRoute(s, "fit", "/v1/fit", cfg.RequestTimeout, prepareFit),
		cachedRoute(s, "validate", "/v1/validate", cfg.SimTimeout, s.prepareValidate),
		{name: "healthz", path: "/healthz", serve: s.handleHealthz},
		{name: "readyz", path: "/readyz", serve: s.handleReadyz},
		{name: "metrics", path: "/metrics", serve: s.handleMetrics},
		{name: "notfound", path: "/", serve: s.handleNotFound},
	}
	s.mux = http.NewServeMux()
	for _, rt := range routes {
		s.mux.HandleFunc(rt.path, s.instrument(rt, s.metrics.endpoint(rt.name)))
		if rt.cached {
			s.forwardPaths[rt.name] = rt.path
		}
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz to failing so load balancers stop routing new
// traffic; call it before http.Server.Shutdown, which then drains the
// in-flight requests.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the simulation worker pool after completing accepted jobs.
func (s *Server) Close() { s.pool.shutdown() }

// Publish registers the metrics snapshot in the process-wide expvar
// namespace under "chcserve" (call at most once per process; tests read
// /metrics instead).
func (s *Server) Publish() {
	expvar.Publish("chcserve", expvar.Func(func() any { return s.metrics.snapshot() }))
}

// Metrics returns the current metrics snapshot (for the load generator and
// tests).
func (s *Server) Metrics() map[string]any { return s.metrics.snapshot() }

// ---- operational endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ string) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, _ string) {
	if s.draining.Load() {
		// Draining is an error response like any other: JSON body with a
		// machine-readable code and the request ID.
		s.failCode(w, http.StatusServiceUnavailable, CodeDraining,
			errors.New("server: draining: not accepting new work"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleNotFound is the fallback route: unknown paths get the same JSON
// error contract as every other failure, not net/http's bare-text 404.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request, _ string) {
	s.failCode(w, http.StatusNotFound, CodeNotFound,
		fmt.Errorf("server: no such endpoint %q", r.URL.Path))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.metrics.snapshot())
}

// ---- request plumbing ----

// decode reads one JSON request body, rejecting unknown fields so typos
// fail loudly instead of silently selecting defaults.
func (s *Server) decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Even the fallback honors the error contract: JSON content type
		// and a machine-readable code (http.Error would write text/plain).
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": \"server: encoding response\",\n  \"code\": %q\n}\n", CodeInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// Machine-readable error codes: the stable vocabulary of the "code" field
// in every non-2xx body. Clients branch on these, not on message text —
// they are exported so internal/client and the cluster forwarding layer
// share the vocabulary instead of re-spelling the strings.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeSaturated        = "saturated"
	CodeInfeasible       = "infeasible"
	CodeDeadline         = "deadline"
	CodeTransient        = "transient"
	CodePanic            = "panic"
	CodeInternal         = "internal"
)

// errInfeasible marks an optimization with no feasible configuration at
// any requested budget — a property of the request (422), not a server
// failure.
var errInfeasible = errors.New("infeasible")

// computePanicError is a recovered compute-goroutine panic carried back
// to the handler as an ordinary error (status 500, code "panic").
type computePanicError struct {
	endpoint string
	value    any
}

func (e *computePanicError) Error() string {
	return fmt.Sprintf("server: %s computation panicked: %v", e.endpoint, e.value)
}

// errorCode maps a (status, error) pair to its machine-readable code.
func errorCode(status int, err error) string {
	var sat *queueing.SaturationError
	var cpe *computePanicError
	switch {
	case errors.As(err, &cpe):
		return CodePanic
	case errors.Is(err, ErrShuttingDown):
		return CodeDraining
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.As(err, &sat):
		return CodeSaturated
	case errors.Is(err, errInfeasible):
		return CodeInfeasible
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return CodeDeadline
	case errors.Is(err, faults.ErrInjected):
		return CodeTransient
	}
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusNotFound:
		return CodeNotFound
	default:
		return CodeInternal
	}
}

// errorStatus maps an error to its HTTP status: queue shed → 429,
// saturation or infeasibility → 422, deadline or injected transient fault
// → 503, everything else → the given fallback status. Whole-request
// failures (fail) and per-point sweep error lines share this mapping.
func errorStatus(err error, fallback int) int {
	var sat *queueing.SaturationError
	switch {
	case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown):
		return http.StatusTooManyRequests
	case errors.As(err, &sat), errors.Is(err, errInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled),
		errors.Is(err, faults.ErrInjected):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// fail maps an error to its status (see errorStatus) and JSON body. Every
// body carries a machine-readable code and the request ID.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	status = errorStatus(err, status)
	s.failCode(w, status, errorCode(status, err), err)
}

// failCode writes the error body with an explicit code (fail derives it).
func (s *Server) failCode(w http.ResponseWriter, status int, code string, err error) {
	// The request-ID middleware stamped the response header before the
	// handler ran; echo it into the body so error reports are self-contained.
	resp := ErrorResponse{Error: err.Error(), Code: code, RequestID: w.Header().Get(requestIDHeader)}
	var sat *queueing.SaturationError
	switch {
	case status == http.StatusTooManyRequests:
		s.metrics.Shed.Add(1)
		retry := int(s.cfg.RetryAfter / time.Second)
		if retry < 1 {
			retry = 1
		}
		resp.RetryAfterSeconds = retry
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	case errors.As(err, &sat):
		resp.Rho = sat.Rho
	}
	writeJSON(w, status, resp)
}

// post guards an API handler: POST only, with a per-request deadline.
func (s *Server) post(w http.ResponseWriter, r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, errors.New("server: use POST with a JSON body"))
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, true
}

// serveCached answers a cache-backed request through cached and writes
// the resulting bytes, tagging the response with X-Cache. A hit is
// answered synchronously: one shard lock, then the write. Otherwise the
// handler waits on the key's flight until the route's deadline, which is
// enforced even against a stalled computation: the handler answers 503
// at the deadline while the flight keeps computing, so the finished
// result is cached for future callers.
//
//chc:hotpath
func (s *Server) serveCached(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint, key string, compute func() (entry, error)) {
	forwarded := false
	if s.forwarder != nil {
		w.Header().Set(ClusterNodeHeader, s.forwarder.Self())
		// A forwarded request always computes here — one hop maximum,
		// so disagreeing ring views cannot loop a request — and a
		// draining node refuses it outright: the deliberate draining
		// answer tells the forwarder to fall back to local compute
		// instead of waiting out a dying peer.
		forwarded = r.Header.Get(ForwardedHeader) != ""
		if forwarded && s.draining.Load() {
			s.fail(w, http.StatusTooManyRequests, ErrShuttingDown)
			return
		}
	}
	ent, verdict, note, err := s.cached(ctx, endpoint, key, w.Header().Get(requestIDHeader), forwarded, compute)
	if verdict == "" {
		s.metrics.Timeouts.Add(1)
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("X-Cache", verdict)
	if note.via != "" {
		w.Header().Set(ClusterViaHeader, note.via)
		if note.owner != "" {
			w.Header().Set(ClusterOwnerHeader, note.owner)
		}
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeEntry(w, ent)
}

// writeEntry writes a cached or computed entry as the response.
//
//chc:hotpath
func writeEntry(w http.ResponseWriter, ent entry) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(ent.status)
	w.Write(ent.body)
}

// cached is the one cached-compute path: every cache-backed request and
// every grid point runs its computation through it, and it is the one
// place that maps a cache outcome to its X-Cache verdict and the cache
// metrics: "hit", "dedup", "miss", or — for a miss relayed from the key's
// owner — the owner's verdict, so the cluster-wide miss count equals
// actual computations no matter which entry node a client hit. note says
// how the leader's computation was placed; waiters and hits get none. An
// empty verdict means ctx ended before the key's flight did: err is
// ctx.Err(), nothing is counted, and the flight still completes and
// caches its result.
//
//chc:hotpath
func (s *Server) cached(ctx context.Context, endpoint, key, requestID string, forwarded bool, compute func() (entry, error)) (entry, string, forwardNote, error) {
	comp := computation{
		s: s, endpoint: endpoint, requestID: requestID,
		forward: s.forwarder != nil && !forwarded, compute: compute,
	}
	ent, how, note, err := s.cache.do(ctx, key, comp)
	switch how {
	case outcomeHit:
		s.metrics.CacheHits.Add(1)
		return ent, "hit", note, err
	case outcomeShared:
		s.metrics.DedupWaits.Add(1)
		return ent, "dedup", note, err
	case outcomeMiss:
		s.metrics.CacheMisses.Add(1)
		if note.via == "forward" && note.cache != "" {
			return ent, note.cache, note, err
		}
		return ent, "miss", note, err
	}
	return ent, "", note, err // outcomeLeft
}

// computation is the work behind one cache key as the key's flight
// leader runs it. It travels by value, so answering a hit allocates
// nothing for it. In cluster mode the leader first consults the ring
// (cluster.go): a peer-owned key is forwarded to its owner inside the
// flight, so local duplicates dedup onto one forward, and the relayed
// answer — byte-identical to the owner's — lands in the local cache,
// replicating the hot key at its entry node.
type computation struct {
	s         *Server
	endpoint  string // the fault-injection endpoint and the panic label
	requestID string // carried to the key's owner by a forward
	forward   bool   // place the key on the ring (cluster mode, not itself forwarded)
	compute   func() (entry, error)
}

// run answers a flight leader's key: relayed from the key's owner when
// the ring places it on a reachable peer, computed here otherwise. It
// records the placement in note.
func (c computation) run(ctx context.Context, key string, note *forwardNote) (entry, error) {
	if c.forward {
		if ent, ok := c.s.forwardToOwner(ctx, key, c.requestID, note); ok {
			return ent, nil
		}
	}
	return c.s.guardCompute(c.endpoint, c.compute)
}

// guardCompute runs a computation under panic recovery and compute-site
// fault injection, so injected failures take the path real failures take.
// Computations run on their cache flight's goroutine, out of reach of the
// middleware's recover: panics convert to errors here so a crashed
// computation yields a 500 (or an error line), never a dead process, and
// the flight closes normally on the error path.
func (s *Server) guardCompute(endpoint string, compute func() (entry, error)) (ent entry, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Panics.Add(1)
			err = &computePanicError{endpoint: endpoint, value: rec}
		}
	}()
	if s.faults != nil {
		if err := s.faults.Inject(faults.SiteCompute, endpoint); err != nil {
			return entry{}, err
		}
	}
	return compute()
}

// render marshals a successful response body into a cacheable entry.
func render(v any) (entry, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return entry{}, err
	}
	return entry{status: http.StatusOK, body: buf.Bytes()}, nil
}

// ---- API endpoints ----

// cachedRoute declares a cache-backed route: every such request takes one
// path from body to cache key. post checks the method and sets the
// route's deadline; decode reads the body; prepare validates it and
// returns its canonical form and computation (a failure of either is a
// 400); canonicalKey keys the canonical form under the route's name (a
// failure is a 500); serveCached answers. The canonical form is itself a
// request body that prepares back to the same key, which is what lets a
// cluster node replay it against path at the key's owner.
func cachedRoute[Req any](s *Server, name, path string, timeout time.Duration,
	prepare func(*Req) (any, func() (entry, error), error)) route {
	serve := func(w http.ResponseWriter, r *http.Request, _ string) {
		ctx, cancel, ok := s.post(w, r, timeout)
		if !ok {
			return
		}
		defer cancel()
		var req Req
		if err := s.decode(r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		canonical, compute, err := prepare(&req)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		key, err := canonicalKey(name, canonical)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		s.serveCached(ctx, w, r, name, key, compute)
	}
	return route{name: name, path: path, api: true, cached: true, serve: serve}
}

// resolvePredict resolves a predict request's platform and canonicalizes
// its workload. On a failure the results resolved so far are still
// returned: a batch's error line names what it could.
func resolvePredict(req *PredictRequest) (machine.Config, WorkloadSpec, error) {
	cfg, err := req.Config.Resolve()
	if err != nil {
		return cfg, WorkloadSpec{}, err
	}
	wspec, err := canonicalWorkload(req.Workload)
	return cfg, wspec, err
}

// preparePredict is /v1/predict's prepare step; batch points run the same
// resolution and the same predictPoint.
func (s *Server) preparePredict(req *PredictRequest) (any, func() (entry, error), error) {
	cfg, wspec, err := resolvePredict(req)
	if err != nil {
		return nil, nil, err
	}
	canonical, compute := s.predictPoint(cfg, wspec, req.Delta)
	return canonical, compute, nil
}

// predictPoint is the one way a predict point is keyed and computed:
// /v1/predict, batch points and sweep points all build their canonical
// request here and key it under predictRoute, so a grid point and the
// equivalent single request share one cache entry byte for byte. The
// computation resolves the workload, solves the model and renders.
func (s *Server) predictPoint(cfg machine.Config, wspec WorkloadSpec, delta float64) (PredictRequest, func() (entry, error)) {
	canonical := PredictRequest{Config: configKey(cfg), Workload: wspec, Delta: delta}
	return canonical, func() (entry, error) {
		wl, err := s.resolveSpec(wspec)
		if err != nil {
			return entry{}, err
		}
		res, err := s.evaluate(cfg, wl, core.Options{CoherenceAdjust: delta})
		if err != nil {
			return entry{}, err
		}
		var text bytes.Buffer
		core.RenderResult(&text, wl, res)
		return render(PredictResponse{Result: res, Workload: wl, Text: text.String()})
	}
}

func (s *Server) prepareOptimize(req *OptimizeRequest) (any, func() (entry, error), error) {
	if req.Budget <= 0 {
		return nil, nil, fmt.Errorf("server: budget must be positive, got %v", req.Budget)
	}
	top := req.Top
	if top <= 0 {
		top = 5
	} else if top > 50 {
		top = 50
	}
	wspec, err := canonicalWorkload(req.Workload)
	if err != nil {
		return nil, nil, err
	}
	canonical := OptimizeRequest{Budget: req.Budget, Workload: wspec, Top: top, Delta: req.Delta}
	return canonical, func() (entry, error) {
		wl, err := s.resolveSpec(wspec)
		if err != nil {
			return entry{}, err
		}
		opts := core.Options{CoherenceAdjust: req.Delta}
		best, all, err := cost.Optimize(req.Budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return entry{}, err
		}
		return render(OptimizeResponse{
			Workload:  wl.Name,
			Principle: cost.Recommend(wl).String(),
			Feasible:  len(all),
			Best:      best,
			Top:       all[:min(top, len(all))],
		})
	}, nil
}

func (s *Server) prepareAdvise(req *AdviseRequest) (any, func() (entry, error), error) {
	cfg, err := req.Config.Resolve()
	if err != nil {
		return nil, nil, err
	}
	if req.Budget < 0 {
		return nil, nil, fmt.Errorf("server: negative budget increase %v", req.Budget)
	}
	wspec, err := canonicalWorkload(req.Workload)
	if err != nil {
		return nil, nil, err
	}
	canonical := AdviseRequest{Config: configKey(cfg), Budget: req.Budget, Workload: wspec, Delta: req.Delta}
	return canonical, func() (entry, error) {
		wl, err := s.resolveSpec(wspec)
		if err != nil {
			return entry{}, err
		}
		opts := core.Options{CoherenceAdjust: req.Delta}
		plan, err := cost.Upgrade(cfg, req.Budget, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return entry{}, err
		}
		advice, err := cost.UpgradeAdvice(cfg, wl, opts)
		if err != nil {
			return entry{}, err
		}
		return render(AdviseResponse{
			Workload:  wl.Name,
			Principle: cost.Recommend(wl).String(),
			Plan:      plan,
			Advice:    advice,
		})
	}, nil
}

// prepareFit keys a fit on the request as sent: it has no aliases.
func prepareFit(req *FitRequest) (any, func() (entry, error), error) {
	return *req, func() (entry, error) {
		params, stats, err := locality.Fit(req.Xs, req.Ps, locality.FitOptions{Weights: req.Weights})
		if err != nil {
			return entry{}, err
		}
		params.Gamma = req.Gamma
		return render(FitResponse{Params: params, Stats: stats})
	}, nil
}

func (s *Server) prepareValidate(req *ValidateRequest) (any, func() (entry, error), error) {
	kernel, err := canonicalKernelName(req.Workload)
	if err != nil {
		return nil, nil, err
	}
	divisor := req.Divisor
	if divisor == 0 {
		divisor = 16
	}
	if divisor < 1 {
		return nil, nil, fmt.Errorf("server: divisor must be >= 1, got %d", divisor)
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		return nil, nil, err
	}
	if divisor > 1 {
		if cfg, err = cfg.Scaled(divisor); err != nil {
			return nil, nil, err
		}
	}
	// The canonical Config is the already-scaled form (its Divisor, if
	// any, is part of configKey), so the canonical request pins Divisor
	// to 1: replaying these bytes — as the cluster forwarder does — must
	// not scale the platform a second time.
	canonical := ValidateRequest{Config: configKey(cfg), Workload: kernel, Divisor: 1}
	return canonical, func() (entry, error) {
		// The expensive leg: bounded workers, bounded queue, shed beyond.
		var res backend.RunResult
		var simErr error
		if err := s.pool.do(func() {
			res, simErr = s.simulate(cfg, kernel)
		}); err != nil {
			return entry{}, err
		}
		if simErr != nil {
			return entry{}, simErr
		}
		share := make(map[string]float64, int(backend.ClassDisk-backend.ClassCacheHit)+1)
		for c := backend.ClassCacheHit; c <= backend.ClassDisk; c++ {
			// Deep-level classes appear only when the config has them:
			// one-level responses keep their historical key set.
			if c.DeepOnly() && res.ClassShare[c] == 0 {
				continue
			}
			share[c.String()] = res.ClassShare[c]
		}
		return render(ValidateResponse{
			Platform:       cfg.Name,
			Workload:       kernel,
			EInstr:         res.EInstr,
			Seconds:        res.Seconds,
			AvgT:           res.AvgT,
			WallCycles:     res.WallCycles,
			Instructions:   res.Instructions,
			MemoryRefs:     res.MemoryRefs,
			Barriers:       res.Barriers,
			ClassShare:     share,
			CoherenceShare: res.CoherenceShare,
			NetUtilization: res.NetUtilization,
		})
	}, nil
}

// resolveSpec turns a canonicalized workload spec into a model workload.
func (s *Server) resolveSpec(w WorkloadSpec) (core.Workload, error) {
	if w.Inline != nil {
		return *w.Inline, nil
	}
	return s.resolve(w.Name, w.Measured)
}

// configKey reduces a resolved configuration to its canonical request
// form: catalog configurations key on their name alone, custom ones on
// the full resolved field set.
func configKey(cfg machine.Config) ConfigSpec {
	// Catalog configurations key on their (unique) name, including scaled
	// variants ("C4/16"). Custom platforms must key on their full field
	// set: a scaled custom is renamed "custom/N" by Scaled, and keying
	// that on the name alone would collide every divisor-N custom
	// platform into one cache entry regardless of its capacities.
	if cfg.Name != "custom" && !strings.HasPrefix(cfg.Name, "custom/") {
		// A scaled catalog config is named "C4/16" by Scaled; key it as
		// the resolvable canonical form {Name: "C4", Divisor: 16}.
		if base, div, ok := strings.Cut(cfg.Name, "/"); ok {
			if n, err := strconv.Atoi(div); err == nil && n > 1 {
				return ConfigSpec{Name: base, Divisor: n}
			}
		}
		return ConfigSpec{Name: cfg.Name}
	}
	net, _ := cfg.Net.MarshalText()
	kind, _ := cfg.Kind.MarshalText()
	return ConfigSpec{
		Kind: string(kind), Machines: cfg.N, Procs: cfg.Procs,
		CacheBytes: cfg.CacheBytes, MemoryBytes: cfg.MemoryBytes,
		Levels: cfg.Levels,
		Net:    string(net), ClockMHz: cfg.ClockMHz,
	}
}

// runSimulation is the production simulate seam: stream the kernel at the
// small scale through the execution-driven simulator.
func runSimulation(cfg machine.Config, kernel string) (backend.RunResult, error) {
	k, err := workloads.ByName(kernel, workloads.ScaleSmall)
	if err != nil {
		return backend.RunResult{}, err
	}
	return experiments.StreamSimulate(k, cfg)
}
