package server

// /v1/sweep and /v1/batch: whole parameter grids in one request. A sweep
// is the cross product configs × workloads (plus an optional budget
// optimization per workload); a batch is an explicit list of predict
// requests. Both stream NDJSON — one result line per point, in point-index
// order, closed by a summary trailer — and both ride the existing
// machinery: every point goes through the result cache under the same key
// the equivalent /v1/predict request would use, so cached points
// short-circuit, a sweep warms the cache for single requests (and vice
// versa), and concurrent identical points dedup through single-flight.
//
// Grids are one admission unit: SweepConcurrency tokens gate streaming
// sweeps, and grids beyond the limit (or during drain) are shed with the
// same 429 + Retry-After contract as the simulation pool. Within an
// admitted grid, SweepWorkers evaluation workers with reused per-worker
// buffers fan out over the points. A sweep resolves each axis once; every
// predict point — sweep or batch — is keyed by predictPoint, the helper
// /v1/predict itself uses.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/machine"
	"memhier/internal/queueing"
)

// SweepRequest asks for a whole grid: every config × workload model
// evaluation, plus — when Budgets is non-empty — one eq. 6 budget
// optimization per workload over those budgets.
type SweepRequest struct {
	Configs   []ConfigSpec   `json:"configs,omitempty"`
	Workloads []WorkloadSpec `json:"workloads"`
	// Budgets adds a budget-optimization point per workload, evaluated in
	// one branch-and-bound pass over all budgets (duplicates collapse).
	Budgets []float64 `json:"budgets,omitempty"`
	// Delta is the coherence adjustment applied to every point.
	Delta float64 `json:"delta,omitempty"`
	// Offset resumes an interrupted stream: points with index < Offset are
	// assumed delivered and not re-sent. Point indices are a function of
	// the grid alone, so a client can re-request only the missing tail.
	Offset int `json:"offset,omitempty"`
}

// BatchRequest asks for an explicit list of predictions in one request.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
	Offset   int              `json:"offset,omitempty"`
}

// SweepLine is one NDJSON result line. Kind "predict" carries the compact
// form of the exact PredictResponse bytes the equivalent /v1/predict
// request returns; kind "budget" carries a BudgetSweepResponse. A failed
// point reports its error in place without ending the stream.
type SweepLine struct {
	Kind  string `json:"kind"`
	Index int    `json:"index"`
	// Config and Workload name the point (display names; empty on budget
	// lines' Config).
	Config   string `json:"config,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Cache reports how the point was answered: hit, miss, or dedup.
	Cache    string          `json:"cache,omitempty"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    *ErrorResponse  `json:"error,omitempty"`
}

// SweepSummary is the NDJSON trailer: totals for the stream. Complete is
// false when the deadline (or the client) cut the stream short — the
// client resumes with Offset set past the last received index.
type SweepSummary struct {
	Kind        string `json:"kind"` // always "summary"
	Points      int    `json:"points"`
	Emitted     int    `json:"emitted"`
	Errors      int    `json:"errors"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	DedupWaits  int    `json:"dedup_waits"`
	Complete    bool   `json:"complete"`
}

// BudgetSweepResponse is the payload of a kind "budget" line: the eq. 6
// winners across the requested budgets for one workload, with the search's
// work accounting.
type BudgetSweepResponse struct {
	Workload string             `json:"workload"`
	Points   []cost.BudgetPoint `json:"points"`
	Stats    cost.SweepStats    `json:"stats"`
}

// sweepBudgetsKey is the canonical cache-key form of a budget point.
type sweepBudgetsKey struct {
	Workload WorkloadSpec `json:"workload"`
	Budgets  []float64    `json:"budgets"`
	Delta    float64      `json:"delta,omitempty"`
}

// sweepJob is one point of an admitted grid.
type sweepJob struct {
	index    int
	kind     string // "predict" or "budget"
	config   string
	workload string
	key      string
	compute  func() (entry, error)
	// err is a pre-resolution failure (batch points resolve independently);
	// the worker emits it as an error line without touching the cache.
	err error
}

// budgetCompute is the kind "budget" computation: one optimization pass
// answering every budget for one workload. An all-infeasible sweep is an
// errInfeasible (422 on the line, code "infeasible").
func (s *Server) budgetCompute(wspec WorkloadSpec, budgets []float64, delta float64) func() (entry, error) {
	return func() (entry, error) {
		wl, err := s.resolveSpec(wspec)
		if err != nil {
			return entry{}, err
		}
		opts := core.Options{CoherenceAdjust: delta}
		pts, stats, err := cost.OptimizeBudgets(budgets, wl, cost.DefaultCatalog(), cost.DefaultSpace(), opts)
		if err != nil {
			return entry{}, fmt.Errorf("%w: %w", errInfeasible, err)
		}
		return render(BudgetSweepResponse{Workload: wl.Name, Points: pts, Stats: stats})
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, name string) {
	ctx, cancel, ok := s.post(w, r, s.cfg.SweepTimeout)
	if !ok {
		return
	}
	defer cancel()
	if s.draining.Load() {
		s.fail(w, http.StatusTooManyRequests, ErrShuttingDown)
		return
	}
	var req SweepRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Workloads) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("server: sweep: need at least one workload"))
		return
	}
	if len(req.Configs) == 0 && len(req.Budgets) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("server: sweep: need configs or budgets (an empty grid has no points)"))
		return
	}
	for _, b := range req.Budgets {
		if b <= 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("server: sweep: budgets must be positive, got %v", b))
			return
		}
	}

	// Resolve each axis once; any invalid axis value fails the whole grid
	// up front (unlike batch, whose points are independent requests).
	cfgs := make([]machine.Config, len(req.Configs))
	for i, spec := range req.Configs {
		cfg, err := spec.Resolve()
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("server: sweep: configs[%d]: %w", i, err))
			return
		}
		cfgs[i] = cfg
	}
	wls := make([]WorkloadSpec, len(req.Workloads))
	for i, spec := range req.Workloads {
		wspec, err := canonicalWorkload(spec)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("server: sweep: workloads[%d]: %w", i, err))
			return
		}
		wls[i] = wspec
	}
	// Budgets: sorted, deduped — the canonical form shared by the cache
	// key and the optimization (which sorts anyway).
	var budgets []float64
	if len(req.Budgets) > 0 {
		budgets = append([]float64(nil), req.Budgets...)
		sort.Float64s(budgets)
		budgets = budgets[:uniqFloats(budgets)]
	}

	// Point layout: predict points first (row-major configs × workloads),
	// then one budget point per workload. Indices depend only on the grid,
	// so Offset resumption is well-defined across requests.
	total := len(cfgs) * len(wls)
	if len(budgets) > 0 {
		total += len(wls)
	}
	if total > s.cfg.MaxSweepPoints {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: sweep: grid has %d points, limit %d", total, s.cfg.MaxSweepPoints))
		return
	}
	if req.Offset < 0 || req.Offset > total {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: sweep: offset %d outside grid of %d points", req.Offset, total))
		return
	}

	jobs := make([]sweepJob, 0, total-req.Offset)
	for ci, cfg := range cfgs {
		for wi, wspec := range wls {
			idx := ci*len(wls) + wi
			if idx < req.Offset {
				continue
			}
			canonical, compute := s.predictPoint(cfg, wspec, req.Delta)
			key, err := canonicalKey(predictRoute, canonical)
			if err != nil {
				s.fail(w, http.StatusInternalServerError, err)
				return
			}
			jobs = append(jobs, sweepJob{
				index: idx, kind: predictRoute,
				config: cfg.Name, workload: displayName(wspec),
				key: key, compute: compute,
			})
		}
	}
	if len(budgets) > 0 {
		base := len(cfgs) * len(wls)
		for wi, wspec := range wls {
			idx := base + wi
			if idx < req.Offset {
				continue
			}
			key, err := canonicalKey("sweepbudgets", sweepBudgetsKey{
				Workload: wspec, Budgets: budgets, Delta: req.Delta})
			if err != nil {
				s.fail(w, http.StatusInternalServerError, err)
				return
			}
			jobs = append(jobs, sweepJob{
				index: idx, kind: "budget", workload: displayName(wspec),
				key:     key,
				compute: s.budgetCompute(wspec, budgets, req.Delta),
			})
		}
	}
	s.streamGrid(ctx, w, r, name, total, req.Offset, jobs)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, name string) {
	ctx, cancel, ok := s.post(w, r, s.cfg.SweepTimeout)
	if !ok {
		return
	}
	defer cancel()
	if s.draining.Load() {
		s.fail(w, http.StatusTooManyRequests, ErrShuttingDown)
		return
	}
	var req BatchRequest
	if err := s.decode(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	total := len(req.Requests)
	if total == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("server: batch: need at least one request"))
		return
	}
	if total > s.cfg.MaxSweepPoints {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: batch: %d points, limit %d", total, s.cfg.MaxSweepPoints))
		return
	}
	if req.Offset < 0 || req.Offset > total {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: batch: offset %d outside batch of %d points", req.Offset, total))
		return
	}
	// Batch points are independent requests, resolved as /v1/predict
	// resolves them: one invalid point becomes an error line, the rest of
	// the batch still runs.
	jobs := make([]sweepJob, 0, total-req.Offset)
	for i := req.Offset; i < total; i++ {
		pr := &req.Requests[i]
		cfg, wspec, err := resolvePredict(pr)
		job := sweepJob{index: i, kind: predictRoute, config: cfg.Name, workload: displayName(wspec), err: err}
		if err == nil {
			canonical, compute := s.predictPoint(cfg, wspec, pr.Delta)
			job.key, job.err = canonicalKey(predictRoute, canonical)
			job.compute = compute
		}
		jobs = append(jobs, job)
	}
	s.streamGrid(ctx, w, r, name, total, req.Offset, jobs)
}

// displayName is the name a grid line gives a canonical workload (empty
// for the zero spec a failed canonicalization returns).
func displayName(wspec WorkloadSpec) string {
	if wspec.Inline != nil {
		return wspec.Inline.Name
	}
	return wspec.Name
}

// streamGrid admits the grid against the sweep semaphore, fans the jobs
// out over the evaluation workers, and streams the result lines in point
// order followed by the summary trailer. Admission is non-blocking: a
// saturated server sheds the whole grid with 429 + Retry-After rather
// than queueing it.
//
// In cluster mode the grid's predict points are placed on the ring like
// single requests: a worker that draws a peer-owned point forwards it to
// the owner under the grid's request ID — the grid itself is never
// forwarded wholesale, its points scatter to their home shards.
func (s *Server) streamGrid(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint string, total, offset int, jobs []sweepJob) {
	requestID := w.Header().Get(requestIDHeader)
	forwarded := r.Header.Get(ForwardedHeader) != ""
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		s.fail(w, http.StatusTooManyRequests,
			fmt.Errorf("server: %s: %w: %d grids already streaming", endpoint, ErrOverloaded, s.cfg.SweepConcurrency))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Sweep-Points", strconv.Itoa(total))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Fan out. The results channel holds every outstanding line, so
	// workers never block on the handler and a mid-stream deadline cannot
	// deadlock them; they observe ctx and stop picking up new points.
	jobsCh := make(chan sweepJob)
	results := make(chan *SweepLine, len(jobs))
	workers := s.cfg.SweepWorkers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for i := 0; i < workers; i++ {
		go s.gridWorker(ctx, endpoint, requestID, forwarded, jobsCh, results)
	}
	go func() {
		defer close(jobsCh)
		for _, job := range jobs {
			select {
			case jobsCh <- job:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Sequence: lines finish out of order, emit in index order so the
	// stream is deterministic and Offset resumption is exact.
	summary := SweepSummary{Kind: "summary", Points: total}
	pending := make(map[int]*SweepLine, workers)
	next := offset
	received := 0
recv:
	for received < len(jobs) {
		select {
		case line := <-results:
			received++
			pending[line.Index] = line
			for {
				line, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				summary.Emitted++
				switch line.Cache {
				case "hit":
					summary.CacheHits++
				case "miss":
					summary.CacheMisses++
				case "dedup":
					summary.DedupWaits++
				}
				if line.Error != nil {
					summary.Errors++
				}
				if err := enc.Encode(line); err != nil {
					break recv // client went away; the summary won't arrive either
				}
			}
			// One flush per drained burst, not per line: consecutive
			// ready points share a write.
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			s.metrics.Timeouts.Add(1)
			break recv
		}
	}
	summary.Complete = next == total
	enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// gridWorker evaluates points: each line goes through the result cache
// under its canonical key (Server.cached: hits short-circuit, concurrent
// identical points dedup, peer-owned predict points forward in cluster
// mode). The compact buffer is reused across the worker's points, so
// steady-state allocation per point is one exact-size response copy.
func (s *Server) gridWorker(ctx context.Context, endpoint, requestID string, forwarded bool, jobs <-chan sweepJob, results chan<- *SweepLine) {
	var buf bytes.Buffer
	for job := range jobs {
		if ctx.Err() != nil {
			return
		}
		line := &SweepLine{Kind: job.kind, Index: job.index, Config: job.config, Workload: job.workload}
		if job.err != nil {
			s.errorLine(line, job.err, http.StatusBadRequest)
			results <- line
			continue
		}
		ent, verdict, _, err := s.cached(ctx, endpoint, job.key, requestID, forwarded, job.compute)
		line.Cache = verdict
		if err != nil {
			s.errorLine(line, err, http.StatusInternalServerError)
			results <- line
			continue
		}
		// NDJSON lines cannot carry the entry's indented bytes verbatim;
		// embed the compact form of the same bytes (identical JSON value).
		buf.Reset()
		if err := json.Compact(&buf, ent.body); err != nil {
			s.errorLine(line, fmt.Errorf("server: compacting %s point: %w", endpoint, err), http.StatusInternalServerError)
			results <- line
			continue
		}
		line.Status = ent.status
		line.Response = append(make(json.RawMessage, 0, buf.Len()), buf.Bytes()...)
		results <- line
	}
}

// errorLine fills a result line's error fields under the same
// status/code/ρ mapping whole-request failures use.
func (s *Server) errorLine(line *SweepLine, err error, fallback int) {
	status := errorStatus(err, fallback)
	line.Status = status
	line.Error = &ErrorResponse{Error: err.Error(), Code: errorCode(status, err)}
	var sat *queueing.SaturationError
	if errors.As(err, &sat) {
		line.Error.Rho = sat.Rho
	}
}

// uniqFloats compacts a sorted slice in place, returning the unique length.
func uniqFloats(xs []float64) int {
	n := 0
	for i, x := range xs {
		if i == 0 || x != xs[n-1] {
			xs[n] = x
			n++
		}
	}
	return n
}
