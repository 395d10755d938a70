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
	// Place returns the nodes that may own key — the ring owner first,
	// then its replicas, skipping peers currently considered unusable
	// (unhealthy, draining, circuit open) — and whether this node is
	// among the key's owners. An empty owners list with local=false
	// means every owner is unusable: the caller computes locally.
	Place(key string) (owners []string, local bool)
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

// forwardPaths maps cache-backed endpoints to the API path a forwarded
// canonical body replays against. Every key of the result cache is
// "endpoint\x00canonicalJSON", and for these endpoints the canonical
// JSON is itself a valid request that resolves back to the same key —
// so the forwarder needs no separate serialization of the request.
var forwardPaths = map[string]string{
	"predict":  "/v1/predict",
	"optimize": "/v1/optimize",
	"advise":   "/v1/advise",
	"fit":      "/v1/fit",
	"validate": "/v1/validate",
}

// forwardNote records, out of band of the cache protocol, how a leader's
// computation was actually answered; the handler turns it into the
// X-Cluster-* response headers and the relayed X-Cache value.
type forwardNote struct {
	via   string // "local", "forward", or "fallback" (empty: not a leader)
	owner string
	cache string // the owner's X-Cache, when via == "forward"
}

// keyPayload strips the endpoint frame from a cache key, leaving the
// canonical JSON body a forwarded request replays.
func keyPayload(key string) []byte {
	if i := strings.IndexByte(key, 0); i >= 0 {
		return []byte(key[i+1:])
	}
	return []byte(key)
}

// forwardableCompute wraps a leader computation with the cluster
// placement rules above. It must only wrap computations for endpoints in
// forwardPaths and requests that did not themselves arrive forwarded.
//
//chc:hotpath
func (s *Server) forwardableCompute(ctx context.Context, endpoint, key, requestID string, compute func() (entry, error), note *forwardNote) func() (entry, error) {
	path, ok := forwardPaths[endpoint]
	if !ok || s.forwarder == nil {
		return compute
	}
	return func() (entry, error) {
		owners, local := s.forwarder.Place(key)
		if local {
			note.via = "local"
			return compute()
		}
		payload := keyPayload(key)
		for _, peer := range owners {
			res, err := s.forwarder.Forward(ctx, peer, path, requestID, payload)
			if err != nil {
				// Unreachable, circuit-open, draining, or a non-2xx
				// answer: try the next owner, then fall back locally. A
				// deterministic rejection (bad request, infeasible) will
				// reproduce identically in the local computation, with
				// this node's error body.
				s.metrics.ForwardFails.Add(1)
				continue
			}
			note.via, note.owner, note.cache = "forward", peer, res.Cache
			s.metrics.Forwards.Add(peer, 1)
			return entry{status: res.Status, body: res.Body}, nil
		}
		s.metrics.LocalFallbacks.Add(1)
		note.via = "fallback"
		if len(owners) > 0 {
			note.owner = owners[0]
		}
		return compute()
	}
}
