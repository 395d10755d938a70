package client

// Streaming grid calls: Sweep and Batch consume the server's NDJSON
// point streams. The server emits lines in point-index order and closes
// every stream with a summary trailer, which makes resumption exact: on
// a transport failure (or a server-side deadline, signaled by a trailer
// with Complete=false) the client re-requests with Offset set to the
// first point it has not received — only the un-received tail is
// retried, never already-delivered points. Totals are accumulated
// client-side from the lines themselves, so a multi-segment stream
// reports the same counters a single uninterrupted one would. Each
// segment is one attempt of the client's retry loop (client.go), the one
// Post and Call use: the same breaker, failover and backoff, and the same
// rule that a draining answer ends the call at once.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"

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

// stream drives segments until the grid is fully delivered. Each
// segment is one exchange of the retry loop Call uses, so a stream gets
// the same breaker, failover, full-jitter backoff and Retry-After
// handling; a segment that delivered new lines refreshes the retry
// budget, so a long grid is never abandoned because its *total*
// interruptions exceeded MaxRetries, only after MaxRetries attempts in a
// row that delivered nothing.
func (c *Client) stream(ctx context.Context, path string, offset int, build func(int) any, fn func(server.SweepLine) error) (StreamResult, error) {
	id := c.nextRequestID()
	res := StreamResult{RequestID: id}
	next := offset
	err := c.retry(ctx, path, &res.Attempts, func(base string) (bool, bool, error) {
		body, err := json.Marshal(build(next))
		if err != nil {
			return false, false, &abort{fmt.Errorf("client: encoding %s request: %w", path, err)}
		}
		before := next
		done, err := c.segment(ctx, base, path, id, body, &res, &next, fn)
		return done, next > before, err
	})
	return res, err
}

// segment performs one wire attempt and consumes its NDJSON body. It
// returns done=true when the summary trailer confirmed the full grid was
// delivered, and (false, nil) when a well-formed trailer reported an
// incomplete stream. next advances past every line delivered to fn, so
// the caller resumes exactly at the first missing point. An fn error
// comes back as an *abort.
func (c *Client) segment(ctx context.Context, base, path, id string, body []byte, res *StreamResult, next *int, fn func(server.SweepLine) error) (bool, error) {
	resp, _, err := c.send(ctx, base, path, id, body, false)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
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
				return false, &abort{err}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("stream truncated at point %d: %w", *next, err)
	}
	return false, fmt.Errorf("stream ended without a summary at point %d", *next)
}
