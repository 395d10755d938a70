// Package client is the resilient Go client for the chc-serve service:
// JSON calls (Post, Call) and the NDJSON grid streams (Sweep, Batch) run
// their wire attempts through one loop (retry), so both get the same
// transparent retries, exponential backoff with full jitter, Retry-After
// honoring on 429 shedding responses, and a consecutive-failure circuit
// breaker that fails fast while the service is down instead of piling
// retries onto it.
//
// A client can front a whole cluster instead of one node: NewMulti
// installs a set of entry base URLs that calls round-robin over, and a
// transport-level failure fails over to the next entry node on the very
// next attempt — under the same retry budget and carrying the same
// X-Request-ID, so a failed-over call is still one call to the cluster.
// A node whose attempt failed at the transport level starts no call for
// the breaker's OpenFor, unless every node is in that state.
//
// Defaults (all overridable via Options): 3 retries (4 attempts total),
// backoff base 50ms doubling per attempt with full jitter, capped at 2s;
// a server-supplied Retry-After extends the pause up to 5s; the breaker
// opens after 5 consecutive failed attempts and stays open for 2s, then
// lets one probe through (success closes it, failure reopens).
package client

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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memhier/internal/server"
)

// Options tunes a Client. The zero value selects the documented defaults.
type Options struct {
	// MaxRetries is the number of re-attempts after the first try
	// (default 3; negative means no retries).
	MaxRetries int
	// BaseBackoff is the first-retry backoff ceiling; attempt n waits a
	// uniformly random duration in [0, min(MaxBackoff, BaseBackoff·2ⁿ)]
	// — "full jitter" (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the jitter ceiling (default 2s).
	MaxBackoff time.Duration
	// RetryAfterCap bounds how long a server-supplied Retry-After is
	// honored (default 5s): a hinted pause longer than this waits only
	// the cap.
	RetryAfterCap time.Duration
	// FailureThreshold is the number of consecutive failed attempts that
	// opens the circuit breaker (default 5; negative disables the breaker).
	FailureThreshold int
	// OpenFor is how long an open breaker rejects calls before letting a
	// probe through (default 2s). On a multi-base client it is also how
	// long a base whose attempt failed at the transport level starts no
	// call.
	OpenFor time.Duration
	// HTTPClient overrides the transport (the chaos harness injects an
	// in-process one). The default is a dedicated client whose transport
	// keeps idle connections per host well above http.DefaultClient's 2,
	// so concurrent callers reuse connections instead of redialing.
	HTTPClient *http.Client
	// Seed seeds the jitter and request-ID generator (0 = 1): a seeded
	// client produces a deterministic backoff schedule.
	Seed int64
	// Header is added to every outgoing request (the cluster forwarding
	// layer stamps its hop marker here). Values are set, not appended.
	Header http.Header
	// Observer, when set, sees every wire attempt — including ones that
	// are later retried. The chaos harness uses it to check invariants on
	// each response, not just the final one.
	Observer func(Attempt)
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.RetryAfterCap <= 0 {
		o.RetryAfterCap = 5 * time.Second
	}
	if o.FailureThreshold == 0 {
		o.FailureThreshold = 5
	} else if o.FailureThreshold < 0 {
		o.FailureThreshold = 0 // disabled
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 2 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = defaultHTTPClient
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// defaultHTTPClient replaces http.DefaultClient as the default transport:
// the shared default keeps only 2 idle connections per host, so a client
// fanning calls out over a handful of goroutines redials — and pays a TCP
// handshake — on most requests. The service is a single-host API; keep
// enough idle connections for real concurrency.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 100,
		IdleConnTimeout:     90 * time.Second,
	},
}

// ErrCircuitOpen is returned (wrapped) while the breaker is open: the
// call failed fast without touching the network.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// APIError is a non-2xx response decoded into the service's error
// contract. It is returned (wrapped) when retries are exhausted or the
// status is not retryable.
type APIError struct {
	Status      int     // HTTP status
	Code        string  // machine-readable error class
	Message     string  // human-readable error text
	RequestID   string  // the ID echoed by the server
	Rho         float64 // utilization, on saturation rejections
	RetryAfter  int     // seconds, on 429 shedding responses
	ContentType string  // response Content-Type (the contract says JSON)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// Attempt is one wire exchange, reported to Options.Observer.
type Attempt struct {
	Path      string
	RequestID string // the ID sent (constant across retries of one call)
	Status    int    // 0 when the attempt failed before a response
	Header    http.Header
	Body      []byte // response body (nil when Err is a transport error)
	Err       error  // transport error, if any
}

// Meta describes how a successful call was answered.
type Meta struct {
	Status    int
	Attempts  int    // wire attempts made (1 = no retries needed)
	RequestID string // the ID this call carried
	Cache     string // X-Cache: hit, miss, or dedup (API endpoints)
	Body      []byte // raw response bytes (byte-identical across cache hits)
}

// Client is a resilient chc-serve client; safe for concurrent use.
type Client struct {
	opts Options

	bases []string // entry base URLs, round-robined; immutable after NewMulti

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	cursor atomic.Uint64 // round-robin position over bases
	// downUntil[i] is when bases[i] may start calls again (UnixNano; 0 =
	// now): a transport-level failure there sets it OpenFor ahead, any
	// answer from it clears it.
	downUntil []atomic.Int64
	breaker   breaker
	ids       atomic.Uint64
}

// New builds a Client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts Options) *Client {
	return NewMulti([]string{baseURL}, opts)
}

// NewMulti builds a Client that spreads calls over several entry nodes:
// each call starts at the next base URL in round-robin order (skipping
// bases that just failed at the transport level; see startBase), and a
// transport-level failure fails over to the next one for the retry. An
// empty list panics — a client with nowhere to send requests is a
// programming error, not a runtime condition.
func NewMulti(baseURLs []string, opts Options) *Client {
	if len(baseURLs) == 0 {
		panic("client: NewMulti with no base URLs")
	}
	opts = opts.withDefaults()
	bases := make([]string, len(baseURLs))
	for i, u := range baseURLs {
		bases[i] = strings.TrimRight(u, "/")
	}
	return &Client{
		opts:      opts,
		bases:     bases,
		downUntil: make([]atomic.Int64, len(bases)),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		breaker: breaker{
			threshold: opts.FailureThreshold,
			openFor:   opts.OpenFor,
		},
	}
}

// startBase picks the round-robin position a call starts at: the next one,
// skipping bases whose last attempt failed at the transport level within
// the breaker's OpenFor — unless every base is in that state. So a dead
// entry node costs one failed attempt per OpenFor, not the first attempt
// of every Nth call.
func (c *Client) startBase() uint64 {
	start := c.cursor.Add(1) - 1
	if len(c.bases) == 1 {
		return start
	}
	now := time.Now().UnixNano()
	for k := uint64(0); k < uint64(len(c.bases)); k++ {
		if c.downUntil[(start+k)%uint64(len(c.bases))].Load() <= now {
			return start + k
		}
	}
	return start
}

// pickBase resolves the index of one wire attempt's base URL: calls start
// at startBase, and every transport-level failover advances one more
// position.
func (c *Client) pickBase(start uint64, failovers int) int {
	return int((start + uint64(failovers)) % uint64(len(c.bases)))
}

// markBase records how an attempt at base i ended: a transport-level
// failure keeps calls from starting there for OpenFor; any answer clears
// that.
func (c *Client) markBase(i int, transportErr bool) {
	var until int64
	if transportErr {
		until = time.Now().Add(c.opts.OpenFor).UnixNano()
	}
	if c.downUntil[i].Load() != until {
		c.downUntil[i].Store(until)
	}
}

// Ready reports whether the service answers /readyz with 200 (the next
// round-robin entry node, on a multi-base client). It is a health probe,
// not a call: one attempt that neither consults nor feeds the breaker,
// and any answer but 200, draining included, is an error.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.bases[c.pickBase(c.startBase(), 0)]+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: readyz returned %d", resp.StatusCode)
	}
	return nil
}

// Post sends one JSON request to path, retrying retryable failures, and
// decodes the 200 body into out (skipped when out is nil). All retries of
// one call carry the same X-Request-ID.
func (c *Client) Post(ctx context.Context, path string, in, out any) (Meta, error) {
	return c.Call(ctx, path, c.nextRequestID(), in, out)
}

// Call is Post with a caller-chosen X-Request-ID: the cluster forwarding
// layer uses it to carry the original request's ID across the peer hop,
// so a forwarded computation traces as one request end to end. The ID is
// constant across retries and failovers.
func (c *Client) Call(ctx context.Context, path, requestID string, in, out any) (Meta, error) {
	// A RawMessage body is sent as-is: the peer forwarder replays
	// canonical JSON it already holds, and re-encoding it would only
	// validate and copy bytes on the forwarding hot path.
	body, ok := in.(json.RawMessage)
	if !ok {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return Meta{}, fmt.Errorf("client: encoding %s request: %w", path, err)
		}
	}
	meta := Meta{RequestID: requestID}
	err := c.retry(ctx, path, &meta.Attempts, func(base string) (bool, bool, error) {
		resp, b, err := c.send(ctx, base, path, requestID, body, true)
		if resp != nil {
			meta.Status = resp.StatusCode
		}
		if err != nil {
			return false, false, err
		}
		meta.Cache, meta.Body = resp.Header.Get("X-Cache"), b
		return true, false, nil
	})
	if err == nil && out != nil {
		if err = json.Unmarshal(meta.Body, out); err != nil {
			err = fmt.Errorf("client: decoding %s response: %w", path, err)
		}
	}
	return meta, err
}

// exchange is one wire attempt of a call against base: a buffered JSON
// answer (Call) or one NDJSON segment (stream). done reports that the call
// is answered in full; progress, that the attempt delivered part of the
// answer. Its error is returned bare: an *APIError for a non-2xx answer,
// an *abort to end the call with the wrapped error, and anything else is a
// transport-level failure.
type exchange func(base string) (done, progress bool, err error)

// abort ends a call at once with err: not retried, not a service failure.
type abort struct{ err error }

func (e *abort) Error() string { return e.err.Error() }

// retry runs one call's exchanges under the client's one policy. Each
// attempt is admitted by the breaker and goes to the call's start base
// (see startBase), one base further per transport-level failure so far.
// Any answer clears its base's down mark. A retryable answer (see
// retryable; a draining 429 is not one) or a transport failure counts
// against the breaker and is retried after a full-jitter backoff
// stretched to the server's Retry-After. A 2xx closes the breaker; any
// other answer closes it and ends the call. The budget is MaxRetries
// re-attempts; an exchange that made progress refreshes it and is
// resumed at once, so a long stream gives up only after MaxRetries
// attempts in a row that delivered nothing. attempts counts the
// exchanges made.
func (c *Client) retry(ctx context.Context, path string, attempts *int, try exchange) error {
	start := c.startBase()
	failovers, budget := 0, c.opts.MaxRetries
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.breaker.allow(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last failure: %w)", err, lastErr)
			}
			return err
		}
		*attempts++
		base := c.pickBase(start, failovers)
		done, progress, err := try(c.bases[base])
		switch e := err.(type) {
		case nil:
			// An answer in full, or in part: a stream the server's deadline
			// cut, as its trailer says. That follows the contract; resume.
			c.markBase(base, false)
			c.breaker.success()
			if done {
				return nil
			}
			if !progress {
				lastErr = fmt.Errorf("client: %s: stream stalled with no progress", path)
			}
		case *abort:
			c.breaker.success()
			return e.err
		case *APIError:
			c.markBase(base, false)
			if !retryable(e.Status) || e.Code == server.CodeDraining {
				// A well-formed rejection (4xx) is not a service failure:
				// it closes the breaker like a success. Draining is the
				// same deliberate kind of answer — the node is going away
				// and will not recover within a retry budget, so callers
				// (the peer forwarder above all) should fall back now, not
				// burn retries against it.
				c.breaker.success()
				return fmt.Errorf("client: %s: %w", path, e)
			}
			c.breaker.failure()
			lastErr = fmt.Errorf("client: %s: %w", path, e)
		default:
			// Context expiry is the caller's deadline, not the server's
			// health: don't retry, don't count it against the breaker.
			// Other transport failures fail over: the retry goes to the
			// next entry node (a no-op with one base).
			if ctx.Err() != nil {
				return fmt.Errorf("client: %s: %w", path, ctx.Err())
			}
			c.markBase(base, true)
			failovers++
			c.breaker.failure()
			lastErr = fmt.Errorf("client: %s: %w", path, err)
		}
		if progress {
			budget = c.opts.MaxRetries
			continue
		}
		if budget == 0 {
			return lastErr
		}
		budget--
		if err := c.sleepBackoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
			return err
		}
	}
}

// retryable reports whether a status is worth retrying: shedding (429)
// and server-side failures (500, 502, 503, 504).
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// send makes one wire attempt: it POSTs body to base+path with the call's
// headers and reports the attempt to the Observer. resp is non-nil when
// the server answered. A non-2xx answer is read and returned as an
// *APIError. A 2xx body is read into the returned bytes when buffer is set
// (a plain call), and otherwise left open for the caller to consume and
// close (a stream segment, which the Observer sees without its body).
func (c *Client) send(ctx context.Context, base, path, id string, body []byte, buffer bool) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	for k, vs := range c.opts.Header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.opts.HTTPClient.Do(req)
	ok := err == nil && resp.StatusCode/100 == 2
	var b []byte
	if err == nil && (buffer || !ok) {
		b, err = readBody(resp)
		resp.Body.Close()
	}
	if err != nil {
		c.observe(Attempt{Path: path, RequestID: id, Err: err})
		return nil, nil, err
	}
	c.observe(Attempt{Path: path, RequestID: id, Status: resp.StatusCode, Header: resp.Header, Body: b})
	if !ok {
		return resp, nil, decodeAPIError(resp.StatusCode, resp.Header, b)
	}
	return resp, b, nil
}

// observe reports one wire attempt to Options.Observer, if set.
func (c *Client) observe(a Attempt) {
	if ob := c.opts.Observer; ob != nil {
		ob(a)
	}
}

// readBody drains a response. When the server declared a (sane) length,
// one exact-size allocation replaces io.ReadAll's doubling growth — on the
// hot cached-predict path that is most of the per-call garbage.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > 1<<20 {
		return io.ReadAll(resp.Body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+1))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeAPIError turns a non-2xx response into an APIError, tolerating
// bodies that violate the JSON contract (the message then carries a
// snippet so the violation is visible).
func decodeAPIError(status int, header http.Header, body []byte) *APIError {
	apiErr := &APIError{
		Status:      status,
		ContentType: header.Get("Content-Type"),
		RequestID:   header.Get("X-Request-ID"),
	}
	if ra := header.Get("Retry-After"); ra != "" {
		apiErr.RetryAfter = parseRetryAfter(ra)
	}
	var resp server.ErrorResponse
	if err := json.Unmarshal(body, &resp); err == nil && resp.Error != "" {
		apiErr.Message = resp.Error
		apiErr.Code = resp.Code
		apiErr.Rho = resp.Rho
		if apiErr.RequestID == "" {
			apiErr.RequestID = resp.RequestID
		}
		if apiErr.RetryAfter == 0 && resp.RetryAfterSeconds > 0 {
			apiErr.RetryAfter = resp.RetryAfterSeconds
		}
	} else {
		snippet := body
		if len(snippet) > 120 {
			snippet = snippet[:120]
		}
		apiErr.Message = fmt.Sprintf("non-JSON error body: %q", snippet)
	}
	return apiErr
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110:
// either delay-seconds or an HTTP-date. The result is a usable pause —
// never negative. A server (or middlebox) sending "-5" must not turn into
// a 5-second-early retry storm, and a date in the past means "now", so
// both clamp to 0; a value in neither form is explicitly treated as
// absent rather than silently half-parsed.
func parseRetryAfter(ra string) int {
	if n, err := strconv.Atoi(strings.TrimSpace(ra)); err == nil {
		if n < 0 {
			return 0
		}
		return n
	}
	if at, err := http.ParseTime(ra); err == nil {
		d := time.Until(at)
		if d <= 0 {
			return 0
		}
		return int((d + time.Second - 1) / time.Second)
	}
	return 0 // unparseable: no hint
}

// retryAfterOf extracts the server's Retry-After hint from a wrapped
// APIError (0 when absent).
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return time.Duration(apiErr.RetryAfter) * time.Second
	}
	return 0
}

// sleepBackoff waits before retry number attempt+1: full-jitter
// exponential backoff, extended to the server's Retry-After hint (capped)
// when that is longer, abandoned early if ctx expires.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	ceiling := c.opts.BaseBackoff << uint(attempt)
	if ceiling > c.opts.MaxBackoff || ceiling <= 0 {
		ceiling = c.opts.MaxBackoff
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceiling) + 1))
	c.mu.Unlock()
	if retryAfter > c.opts.RetryAfterCap {
		retryAfter = c.opts.RetryAfterCap
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d == 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: backoff interrupted: %w", ctx.Err())
	}
}

// nextRequestID returns a process-unique ID: a seeded random prefix (so
// concurrent chaos runs don't collide) plus a per-client counter. Built
// by hand — fmt.Sprintf costs several allocations per call on a path
// that otherwise allocates nothing.
func (c *Client) nextRequestID() string {
	c.mu.Lock()
	prefix := uint32(c.rng.Uint64())
	c.mu.Unlock()
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 0, 32)
	b = append(b, 'c')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexdigits[(prefix>>uint(shift))&0xf])
	}
	b = append(b, '-')
	b = strconv.AppendUint(b, c.ids.Add(1), 10)
	return string(b)
}

// ---- circuit breaker ----

// breaker is a consecutive-failure circuit breaker. Closed: calls flow,
// each failed attempt increments the streak, a success resets it. At
// threshold the breaker opens: calls fail fast with ErrCircuitOpen for
// openFor. After openFor the next call is the probe (half-open): success
// closes the breaker, failure reopens it for another openFor.
type breaker struct {
	threshold int // 0 = disabled
	openFor   time.Duration

	mu          sync.Mutex
	consecutive int       // guarded by mu
	openUntil   time.Time // guarded by mu; zero = closed
	probing     bool      // guarded by mu; a half-open probe is in flight
}

func (b *breaker) allow() error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return nil
	}
	if time.Now().Before(b.openUntil) {
		return ErrCircuitOpen
	}
	// Open period elapsed: admit one probe, hold everyone else.
	if b.probing {
		return ErrCircuitOpen
	}
	b.probing = true
	return nil
}

func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive++
	if b.probing || b.consecutive >= b.threshold {
		b.openUntil = time.Now().Add(b.openFor)
		b.probing = false
	}
	b.mu.Unlock()
}

// state reports the breaker for tests: open is whether calls would fail
// fast right now.
func (b *breaker) state() (open bool, consecutive int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openUntil.IsZero() && time.Now().Before(b.openUntil) {
		open = true
	}
	return open, b.consecutive
}

// BreakerOpen reports whether the client's circuit breaker is currently
// rejecting calls (for tests and the chaos harness's reporting).
func (c *Client) BreakerOpen() bool {
	open, _ := c.breaker.state()
	return open
}
