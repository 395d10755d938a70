package client

// Streaming grid calls: Sweep and Batch consume the server's NDJSON
// point streams. The server emits lines in point-index order and closes
// every stream with a summary trailer, which makes resumption exact: on
// a transport failure (or a server-side deadline, signaled by a trailer
// with Complete=false) the client re-requests with Offset set to the
// first point it has not received — only the un-received tail is
// retried, never already-delivered points. Totals are accumulated
// client-side from the lines themselves, so a multi-segment stream
// reports the same counters a single uninterrupted one would.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"memhier/internal/server"
)

// StreamResult summarizes a consumed sweep/batch stream across every
// segment it took to deliver it.
type StreamResult struct {
	Points      int // grid size reported by the server
	Received    int // result lines delivered to the callback
	Errors      int // lines carrying a per-point error
	CacheHits   int
	CacheMisses int
	DedupWaits  int
	Segments    int    // 200 responses consumed (1 = no resume was needed)
	Attempts    int    // wire attempts, including shed and failed ones
	RequestID   string // constant across all segments of the call
}

// Sweep calls /v1/sweep and invokes fn for each result line, in point
// order, exactly once per point — across transport failures, which are
// resumed from the first missing point. A nil fn just drives the stream
// for its counters. An fn error aborts the call without retrying.
func (c *Client) Sweep(ctx context.Context, req server.SweepRequest, fn func(server.SweepLine) error) (StreamResult, error) {
	return c.stream(ctx, "/v1/sweep", req.Offset, func(offset int) any {
		r := req
		r.Offset = offset
		return r
	}, fn)
}

// Batch calls /v1/batch with the same streaming and resume semantics as
// Sweep.
func (c *Client) Batch(ctx context.Context, req server.BatchRequest, fn func(server.SweepLine) error) (StreamResult, error) {
	return c.stream(ctx, "/v1/batch", req.Offset, func(offset int) any {
		r := req
		r.Offset = offset
		return r
	}, fn)
}

// callbackError marks an error raised by the caller's line callback:
// it aborts the stream and is never retried.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// stream drives segments until the grid is fully delivered. Retry
// policy mirrors Post — breaker, full-jitter backoff, Retry-After on
// shed segments — with one streaming-specific twist: a segment that
// delivered new lines resets the retry budget, so a long grid is never
// abandoned because its *total* interruptions exceeded MaxRetries; only
// MaxRetries consecutive zero-progress attempts give up.
func (c *Client) stream(ctx context.Context, path string, offset int, build func(int) any, fn func(server.SweepLine) error) (StreamResult, error) {
	id := c.nextRequestID()
	res := StreamResult{RequestID: id}
	next := offset
	retriesLeft := c.opts.MaxRetries
	start := c.startBase()
	failovers := 0
	var lastErr error

	for attempt := 0; ; attempt++ {
		if err := c.breaker.allow(); err != nil {
			if lastErr != nil {
				return res, fmt.Errorf("%w (last failure: %w)", err, lastErr)
			}
			return res, err
		}
		body, err := json.Marshal(build(next))
		if err != nil {
			return res, fmt.Errorf("client: encoding %s request: %w", path, err)
		}
		res.Attempts++
		before := next
		base := c.pickBase(start, failovers)
		done, err := c.streamSegment(ctx, c.bases[base], path, id, body, &res, &next, fn)
		switch {
		case done:
			c.markBase(base, false)
			c.breaker.success()
			return res, nil
		case err == nil:
			// Well-formed but incomplete: the server's deadline cut the
			// stream and said so in the trailer. That is contract-following
			// behavior, not a failure — resume the tail.
			c.markBase(base, false)
			c.breaker.success()
		case ctx.Err() != nil:
			// The caller's deadline, not the server's health.
			return res, fmt.Errorf("client: %s: %w", path, ctx.Err())
		default:
			var abort *callbackError
			if errors.As(err, &abort) {
				c.breaker.success()
				return res, abort.err
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) && !retryable(apiErr.Status) {
				// A well-formed rejection closes the breaker like a success.
				c.breaker.success()
				return res, fmt.Errorf("client: %s: %w", path, apiErr)
			}
			if apiErr == nil {
				// Transport-level failure: the resumed tail goes to the
				// next entry node (a no-op with a single base).
				c.markBase(base, true)
				failovers++
			}
			c.breaker.failure()
			lastErr = fmt.Errorf("client: %s: %w", path, err)
		}

		if next > before {
			retriesLeft = c.opts.MaxRetries
			continue // progress: resume immediately, budget refreshed
		}
		if retriesLeft == 0 {
			if lastErr != nil {
				return res, lastErr
			}
			return res, fmt.Errorf("client: %s: stream stalled at point %d with no progress", path, next)
		}
		retriesLeft--
		if err := c.sleepBackoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
			return res, err
		}
	}
}

// streamSegment performs one wire attempt and consumes its NDJSON body.
// It returns done=true when the summary trailer confirmed the full grid
// was delivered, and (false, nil) when a well-formed trailer reported an
// incomplete stream. next advances past every line delivered to fn, so
// the caller resumes exactly at the first missing point.
func (c *Client) streamSegment(ctx context.Context, base, path, id string, body []byte, res *StreamResult, next *int, fn func(server.SweepLine) error) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	for k, vs := range c.opts.Header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		if ob := c.opts.Observer; ob != nil {
			ob(Attempt{Path: path, RequestID: id, Err: err})
		}
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if ob := c.opts.Observer; ob != nil {
			ob(Attempt{Path: path, RequestID: id, Status: resp.StatusCode, Header: resp.Header, Body: b})
		}
		return false, decodeAPIError(resp.StatusCode, resp.Header, b)
	}
	if ob := c.opts.Observer; ob != nil {
		// Streaming bodies are not buffered for the observer.
		ob(Attempt{Path: path, RequestID: id, Status: resp.StatusCode, Header: resp.Header})
	}
	res.Segments++

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return false, fmt.Errorf("undecodable stream line at point %d: %w", *next, err)
		}
		if probe.Kind == "summary" {
			var sum server.SweepSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return false, fmt.Errorf("undecodable summary trailer: %w", err)
			}
			res.Points = sum.Points
			if !sum.Complete {
				return false, nil // server deadline: resume the tail
			}
			if *next != sum.Points {
				return false, fmt.Errorf("summary claims completion after %d of %d points", *next, sum.Points)
			}
			return true, nil
		}
		var line server.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return false, fmt.Errorf("undecodable %s line at point %d: %w", probe.Kind, *next, err)
		}
		if line.Index < *next {
			continue // already delivered by an earlier segment
		}
		if line.Index != *next {
			return false, fmt.Errorf("stream skipped from point %d to %d", *next, line.Index)
		}
		*next = line.Index + 1
		res.Received++
		switch line.Cache {
		case "hit":
			res.CacheHits++
		case "miss":
			res.CacheMisses++
		case "dedup":
			res.DedupWaits++
		}
		if line.Error != nil {
			res.Errors++
		}
		if fn != nil {
			if err := fn(line); err != nil {
				return false, &callbackError{err: err}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("stream truncated at point %d: %w", *next, err)
	}
	return false, fmt.Errorf("stream ended without a summary at point %d", *next)
}
