package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"memhier/internal/server"
)

// deadBaseURL returns a URL nothing listens on: the port was bound and
// released, so dialing it fails fast with connection refused.
func deadBaseURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// okHandler answers 200 with an empty grid's summary trailer, a whole
// stream for Sweep and a JSON body for Post, and records every
// X-Request-ID it sees.
type okHandler struct {
	mu  sync.Mutex
	ids []string // guarded by mu
}

func (h *okHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.ids = append(h.ids, r.Header.Get("X-Request-ID"))
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"kind":"summary","points":0,"complete":true}` + "\n"))
}

func (h *okHandler) seen() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.ids...)
}

// TestFailoverPreservesRequestID: a call whose first entry node is dead
// fails over to the live one on the retry, carrying the same
// X-Request-ID — one call to the cluster, not two.
func TestFailoverPreservesRequestID(t *testing.T) {
	live := &okHandler{}
	ts := httptest.NewServer(live)
	defer ts.Close()

	c := NewMulti([]string{deadBaseURL(t), ts.URL}, Options{
		MaxRetries: 3, BaseBackoff: 1, MaxBackoff: 1,
	})
	meta, err := c.Post(context.Background(), "/v1/predict", map[string]any{}, nil)
	if err != nil {
		t.Fatalf("failover call failed: %v", err)
	}
	if meta.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one dead, one failover)", meta.Attempts)
	}
	ids := live.seen()
	if len(ids) != 1 || ids[0] != meta.RequestID {
		t.Fatalf("live node saw IDs %v, want exactly the call's ID %q", ids, meta.RequestID)
	}
}

// TestFailoverSharesRetryBudget: the retry budget is per call, not per
// base — two dead entry nodes split MaxRetries+1 attempts between them.
func TestFailoverSharesRetryBudget(t *testing.T) {
	c := NewMulti([]string{deadBaseURL(t), deadBaseURL(t)}, Options{
		MaxRetries: 2, BaseBackoff: 1, MaxBackoff: 1, FailureThreshold: -1,
	})
	meta, err := c.Post(context.Background(), "/v1/predict", map[string]any{}, nil)
	if err == nil {
		t.Fatal("call against two dead nodes succeeded")
	}
	if meta.Attempts != 3 {
		t.Fatalf("attempts = %d, want MaxRetries+1 = 3 shared across bases", meta.Attempts)
	}
}

// TestRoundRobinSpreadsCalls: successive calls start on successive entry
// nodes.
func TestRoundRobinSpreadsCalls(t *testing.T) {
	a, b := &okHandler{}, &okHandler{}
	tsA, tsB := httptest.NewServer(a), httptest.NewServer(b)
	defer tsA.Close()
	defer tsB.Close()

	c := NewMulti([]string{tsA.URL, tsB.URL}, Options{MaxRetries: 0})
	for i := 0; i < 6; i++ {
		if _, err := c.Post(context.Background(), "/x", map[string]any{}, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := len(a.seen()); got != 3 {
		t.Errorf("node A served %d calls, want 3 of 6", got)
	}
	if got := len(b.seen()); got != 3 {
		t.Errorf("node B served %d calls, want 3 of 6", got)
	}
}

// TestDeadBaseSkipped: a dead entry node gets the first attempt of a call
// only until its transport failure is recorded; for the breaker's OpenFor
// after that, calls start at the live nodes. Without the skip it takes the
// first attempt of every third call. Plain calls and streams share it.
func TestDeadBaseSkipped(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func(*Client) error
	}{
		{"post", func(c *Client) error {
			_, err := c.Post(ctx, "/x", map[string]any{}, nil)
			return err
		}},
		{"sweep", func(c *Client) error {
			_, err := c.Sweep(ctx, server.SweepRequest{}, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := &okHandler{}, &okHandler{}
			tsA, tsB := httptest.NewServer(a), httptest.NewServer(b)
			defer tsA.Close()
			defer tsB.Close()

			var mu sync.Mutex
			dead := 0
			c := NewMulti([]string{tsA.URL, deadBaseURL(t), tsB.URL}, Options{
				MaxRetries: 3, BaseBackoff: 1, MaxBackoff: 1, OpenFor: time.Minute,
				Observer: func(at Attempt) {
					if at.Err != nil {
						mu.Lock()
						dead++
						mu.Unlock()
					}
				},
			})
			for i := 0; i < 30; i++ {
				if err := tc.call(c); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if dead > 2 {
				t.Errorf("%d attempts reached the dead base in 30 calls, want at most 2", dead)
			}
			if got := len(a.seen()) + len(b.seen()); got != 30 {
				t.Errorf("live nodes served %d calls, want 30", got)
			}
		})
	}
}

// TestDrainingNotRetried: a 429 whose code is "draining" is a deliberate
// answer from a node that is going away — the client returns it
// immediately instead of burning its retry budget against the drain.
func TestDrainingNotRetried(t *testing.T) {
	var calls int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{
			Error: "server: draining: not accepting new work",
			Code:  server.CodeDraining, RequestID: "x", RetryAfterSeconds: 1,
		})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxRetries: 3, BaseBackoff: 1, MaxBackoff: 1})
	meta, err := c.Post(context.Background(), "/v1/predict", map[string]any{}, nil)
	if err == nil {
		t.Fatal("draining answer reported as success")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeDraining {
		t.Fatalf("error %v, want APIError with code draining", err)
	}
	if meta.Attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d, want 1 wire attempt against a draining node", meta.Attempts, calls)
	}
	if c.BreakerOpen() {
		t.Fatal("draining answer opened the breaker")
	}
}

// TestCallCarriesExplicitID: Call stamps the caller's request ID on the
// wire (the peer-forwarding hop rides this).
func TestCallCarriesExplicitID(t *testing.T) {
	live := &okHandler{}
	ts := httptest.NewServer(live)
	defer ts.Close()

	c := New(ts.URL, Options{MaxRetries: 0, Header: http.Header{"X-Chc-Forwarded": {"node-a"}}})
	const id = "deadbeef-42"
	if _, err := c.Call(context.Background(), "/v1/predict", id, map[string]any{}, nil); err != nil {
		t.Fatal(err)
	}
	if ids := live.seen(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("server saw IDs %v, want [%q]", ids, id)
	}
}

// TestHeaderOptionApplied: Options.Header reaches the wire on every
// attempt.
func TestHeaderOptionApplied(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get("X-Chc-Forwarded"))
		mu.Unlock()
		fmt.Fprint(w, "{}")
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxRetries: 0, Header: http.Header{"X-Chc-Forwarded": {"origin-1"}}})
	if _, err := c.Post(context.Background(), "/x", map[string]any{}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "origin-1" {
		t.Fatalf("server saw forwarded markers %v, want [origin-1]", got)
	}
}
