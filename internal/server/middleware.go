package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"memhier/internal/faults"
)

// requestIDHeader is propagated in and out: a client-supplied ID is echoed
// (so retries and distributed traces correlate), otherwise one is
// generated. Every response carries it, and every error body repeats it.
// It is spelled in canonical MIME form, as net/http stores and sends it,
// so looking it up allocates no canonicalized copy.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds accepted client-supplied IDs; longer (or
// non-printable) values are replaced rather than echoed.
const maxRequestIDLen = 128

// ensureRequestID resolves the request's ID — the client's when usable,
// a fresh one otherwise — and stamps it on the response headers so every
// response (success or failure, any endpoint) carries it.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(requestIDHeader)
	if !validRequestID(id) {
		id = newRequestID()
	}
	w.Header().Set(requestIDHeader, id)
	return id
}

func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' { // printable ASCII, no spaces
			return false
		}
	}
	return true
}

// newRequestID returns a fresh 16-hex-digit ID. Randomness (not a counter)
// keeps IDs unique across processes and restarts; on the improbable
// entropy failure it falls back to a timestamp so requests stay traceable.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// instrument wraps a handler with the operational middleware stack:
// request-ID propagation, request counting and latency recording, panic
// recovery (a crashed handler yields a 500 JSON error and a metric — never
// a dropped connection), and entry-site fault injection on API endpoints.
// The route's counters m are bound here, once, not looked up per request.
func (s *Server) instrument(rt route, m *endpointMetrics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ensureRequestID(sw, r)
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Panics.Add(1)
				// The connection survives: if nothing was written yet this
				// becomes a well-formed 500; if the handler crashed
				// mid-body, the status is already on the wire and only the
				// metric records the crash.
				if !sw.wroteHeader {
					s.failCode(sw, http.StatusInternalServerError, CodePanic,
						fmt.Errorf("server: %s handler panicked: %v", rt.name, rec))
				}
			}
			s.metrics.observe(m, time.Since(start), sw.status)
		}()
		if rt.api && s.faults != nil {
			// Entry-site faults: injected latency and panics. A returned
			// error surfaces as a retryable 503.
			if err := s.faults.Inject(faults.SiteEntry, rt.name); err != nil {
				s.fail(sw, http.StatusServiceUnavailable, err)
				return
			}
		}
		rt.serve(sw, r, rt.name)
	}
}

// statusWriter captures the response status for metrics and whether a
// header was written (so panic recovery knows if a 500 can still be sent).
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer (embedding the interface does
// not promote it) so streaming handlers can push completed NDJSON lines
// to the client without buffering a whole grid.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
