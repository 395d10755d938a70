package server

import (
	"expvar"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the per-endpoint
// latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMs = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	mu      sync.Mutex
	buckets []uint64 // guarded by mu; len(latencyBucketsMs)+1, last is overflow
	count   uint64   // guarded by mu
	sumMs   float64  // guarded by mu
	maxMs   float64  // guarded by mu
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]uint64, len(latencyBucketsMs)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMs, ms)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
	h.mu.Unlock()
}

// quantile returns an upper-bound estimate of the q-quantile from bucket
// boundaries (the overflow bucket reports the observed maximum).
func (h *histogram) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			if i < len(latencyBucketsMs) {
				return latencyBucketsMs[i]
			}
			return h.maxMs
		}
	}
	return h.maxMs
}

func (h *histogram) snapshot() map[string]any {
	h.mu.Lock()
	count, sum, max := h.count, h.sumMs, h.maxMs
	buckets := make(map[string]uint64, len(h.buckets))
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if i < len(latencyBucketsMs) {
			buckets[formatMs(latencyBucketsMs[i])] = n
		} else {
			buckets["+Inf"] = n
		}
	}
	h.mu.Unlock()
	mean := 0.0
	if count > 0 {
		mean = sum / float64(count)
	}
	return map[string]any{
		"count":      count,
		"mean_ms":    mean,
		"max_ms":     max,
		"p50_ms":     h.quantile(0.50),
		"p99_ms":     h.quantile(0.99),
		"buckets_ms": buckets,
	}
}

// formatMs renders a bucket bound as a compact key ("0.25", "5", "1000").
func formatMs(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// endpointMetrics counts one endpoint's traffic. The counters are expvar
// vars (unpublished instances, so multiple servers can coexist in one
// process — tests — while cmd/chc-serve publishes the snapshot globally).
type endpointMetrics struct {
	Requests expvar.Int
	Errors   expvar.Int
	Latency  *histogram
}

func (e *endpointMetrics) snapshot() map[string]any {
	return map[string]any{
		"requests": e.Requests.Value(),
		"errors":   e.Errors.Value(),
		"latency":  e.Latency.snapshot(),
	}
}

// serverMetrics is the service-wide operational state behind /metrics.
type serverMetrics struct {
	Requests    expvar.Int // all requests, all endpoints
	CacheHits   expvar.Int
	CacheMisses expvar.Int
	DedupWaits  expvar.Int // requests that attached to an in-flight twin
	Shed        expvar.Int // 429 responses from the full queue
	Panics      expvar.Int // handler panics recovered into 500s
	Timeouts    expvar.Int // requests answered 503 at their route deadline
	// Cluster-mode counters (zero and absent from the snapshot outside
	// cluster mode).
	Forwards       expvar.Map // per-peer misses proxied to their owner
	ForwardFails   expvar.Int // forward attempts that fell through to the next owner
	LocalFallbacks expvar.Int // peer-owned keys computed locally (owners unusable)
	queueDepth     func() int64
	cacheLen       func() int
	endpoints      map[string]*endpointMetrics // filled in New, read-only after
	cluster        func() map[string]any       // forwarder's view; nil = single-node
}

func newServerMetrics(queueDepth func() int64, cacheLen func() int) *serverMetrics {
	m := &serverMetrics{
		queueDepth: queueDepth,
		cacheLen:   cacheLen,
		endpoints:  make(map[string]*endpointMetrics),
	}
	m.Forwards.Init()
	return m
}

// endpoint registers the named endpoint's counters: the route table in New
// calls it once per route, so the routes are the metrics vocabulary.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	e := &endpointMetrics{Latency: newHistogram()}
	m.endpoints[name] = e
	return e
}

// observe records one finished request of endpoint e.
func (m *serverMetrics) observe(e *endpointMetrics, d time.Duration, status int) {
	m.Requests.Add(1)
	e.Requests.Add(1)
	if status >= 400 {
		e.Errors.Add(1)
	}
	e.Latency.observe(d)
}

// snapshot renders the full metrics tree (the /metrics body and the
// expvar.Func payload).
func (m *serverMetrics) snapshot() map[string]any {
	eps := make(map[string]any, len(m.endpoints))
	for name, e := range m.endpoints {
		eps[name] = e.snapshot()
	}
	snap := map[string]any{
		"requests":     m.Requests.Value(),
		"cache_hits":   m.CacheHits.Value(),
		"cache_misses": m.CacheMisses.Value(),
		"dedup_waits":  m.DedupWaits.Value(),
		"shed":         m.Shed.Value(),
		"panics":       m.Panics.Value(),
		"timeouts":     m.Timeouts.Value(),
		"queue_depth":  m.queueDepth(),
		"cache_len":    m.cacheLen(),
		"endpoints":    eps,
	}
	if m.cluster != nil {
		forwards := make(map[string]int64)
		m.Forwards.Do(func(kv expvar.KeyValue) {
			if v, ok := kv.Value.(*expvar.Int); ok {
				forwards[kv.Key] = v.Value()
			}
		})
		snap["forwards"] = forwards
		snap["forward_fails"] = m.ForwardFails.Value()
		snap["local_fallbacks"] = m.LocalFallbacks.Value()
		snap["cluster"] = m.cluster()
	}
	return snap
}
