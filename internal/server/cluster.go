package server

// Cluster mode: N chc-serve nodes acting as one sharded response cache.
// Every canonical request key has an owner node on a consistent-hash
// ring; a node receiving a request it does not own proxies the cache
// miss to the owner, so single-flight dedup happens at the owner and
// each canonical request is computed at most once cluster-wide — the
// serving layer applies the paper's thesis (cluster performance is
// decided by how the memory hierarchy is shared and traversed) one
// level up, with the cluster-wide cache as the outermost memory level.
//
// The server side of the seam is deliberately thin: a PeerForwarder
// interface that places keys and proxies canonical request bodies. The
// concrete implementation (ring, health view, resilient per-peer
// clients) lives in internal/cluster, which depends on internal/client
// and therefore on this package — the interface keeps the dependency
// arrow pointing one way.
//
// Degradation rules, in order of preference:
//
//  1. this node owns the key (or is one of its R replicas): compute
//     locally — the normal sharded path;
//  2. a healthy owner exists: forward the canonical body to it with the
//     original X-Request-ID and relay its byte-identical answer (which
//     also enters the local cache, replicating hot keys toward their
//     traffic);
//  3. every owner is unreachable, circuit-open, or draining: compute
//     locally — correctness over placement; the key is served, just not
//     from its home shard.
//
// A forwarded request carries the X-Chc-Forwarded hop marker: the
// receiver always computes locally (one hop maximum, so ring-view
// disagreement can never loop a request) and, when draining, rejects it
// with the draining error body so the forwarder falls back to rule 3
// instead of waiting out a dying node.

import (
	"context"
	"strings"
)

// Cluster hop and observability headers.
const (
	// ForwardedHeader marks a peer-forwarded request; its value is the
	// origin node's name. Presence disables re-forwarding at the receiver.
	ForwardedHeader = "X-Chc-Forwarded"
	// ClusterNodeHeader names the node that answered (every response in
	// cluster mode).
	ClusterNodeHeader = "X-Cluster-Node"
	// ClusterOwnerHeader names the ring owner of the request's key on
	// computed (non-hit) answers.
	ClusterOwnerHeader = "X-Cluster-Owner"
	// ClusterViaHeader reports how a computed answer was obtained:
	// "local" (this node owns the key), "forward" (relayed from the
	// owner), or "fallback" (owner unavailable, computed here anyway).
	ClusterViaHeader = "X-Cluster-Via"
)

// PeerForwarder is the server's seam to the cluster layer (implemented
// by internal/cluster.Cluster; nil = single-node mode).
type PeerForwarder interface {
	// Self returns this node's name.
	Self() string
	// Place returns key's ring owner (whether or not it is usable), the
	// nodes that may answer for it — the ring owner first, then its
	// replicas, skipping peers currently considered unusable (unhealthy,
	// draining, circuit open) — and whether this node is among the key's
	// owners. An empty usable list with local=false means every owner is
	// unusable: the caller computes locally.
	Place(key string) (owner string, usable []string, local bool)
	// Forward replays the canonical request body against peer's path,
	// carrying requestID as X-Request-ID and this node's name as the hop
	// marker. It returns an error for anything but a 2xx answer.
	Forward(ctx context.Context, peer, path, requestID string, body []byte) (ForwardResult, error)
	// Stats reports the cluster view (peer health, ring ownership
	// fraction, …); merged into /metrics under "cluster".
	Stats() map[string]any
}

// ForwardResult is a successful (2xx) forwarded answer.
type ForwardResult struct {
	Status int
	// Cache is the owner's X-Cache answer (hit, miss, or dedup) — the
	// cluster-wide truth about whether this request caused a computation.
	Cache string
	Body  []byte
}

// forwardNote records, out of band of the cache protocol, how a leader's
// computation was actually answered; the handler turns it into the
// X-Cluster-* response headers and the relayed X-Cache value.
type forwardNote struct {
	via   string // "local", "forward", or "fallback" (empty: not a leader)
	owner string
	cache string // the owner's X-Cache, when via == "forward"
}

// forwardTarget splits a cache key into the API path its canonical body
// replays against and that body. Every key of the result cache is
// "endpoint\x00canonicalJSON", and for the route table's cached routes
// the canonical JSON is itself a valid request that resolves back to the
// same key — so the forwarder needs no separate serialization of the
// request. ok is false for other keys: a grid's budget points
// ("sweepbudgets") have no standalone route to replay against and stay
// local, while its predict points carry predict keys and forward like
// single requests.
func (s *Server) forwardTarget(key string) (path, body string, ok bool) {
	endpoint, body, found := strings.Cut(key, "\x00")
	if !found {
		return "", "", false
	}
	path, ok = s.forwardPaths[endpoint]
	return path, body, ok
}

// forwardToOwner applies the cluster placement rules above to a flight
// leader's key. ok reports an answer relayed from one of the key's
// owners; otherwise the leader computes locally, and note says whether
// it owns the key ("local") or its owners were unusable ("fallback"). A
// fallback names the key's ring owner even when Place dropped it as
// unusable. Keys of uncached routes always compute locally.
//
//chc:hotpath
func (s *Server) forwardToOwner(ctx context.Context, key, requestID string, note *forwardNote) (entry, bool) {
	path, body, ok := s.forwardTarget(key)
	if !ok {
		return entry{}, false
	}
	owner, usable, local := s.forwarder.Place(key)
	if local {
		note.via = "local"
		return entry{}, false
	}
	payload := []byte(body)
	for _, peer := range usable {
		res, err := s.forwarder.Forward(ctx, peer, path, requestID, payload)
		if err != nil {
			// Unreachable, circuit-open, draining, or a non-2xx answer:
			// try the next owner, then fall back locally. A
			// deterministic rejection (bad request, infeasible) will
			// reproduce identically in the local computation, with this
			// node's error body.
			s.metrics.ForwardFails.Add(1)
			continue
		}
		note.via, note.owner, note.cache = "forward", peer, res.Cache
		s.metrics.Forwards.Add(peer, 1)
		return entry{status: res.Status, body: res.Body}, true
	}
	s.metrics.LocalFallbacks.Add(1)
	note.via, note.owner = "fallback", owner
	return entry{}, false
}
