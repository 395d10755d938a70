// Package cluster turns a set of chc-serve nodes into one sharded
// response cache: it implements server.PeerForwarder over a
// deterministic consistent-hash ring (internal/cluster/ring) and the
// resilient peer client (internal/client).
//
// Membership is static — the -peers flag names every node up front —
// but liveness is not: a gossip-free health view is maintained from
// periodic /readyz probes, and each peer link carries its own circuit
// breaker (via its dedicated client), so placement skips peers that are
// probed-down, draining, or tripping their breaker. The server's
// degradation rules (server/cluster.go) then fall back to local compute
// when no usable owner remains — correctness over placement.
//
// All nodes are configured with the same member list, virtual-node
// count, and seed, so they compute identical rings without exchanging a
// single message; that determinism is what makes one forwarding hop
// sufficient.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"memhier/internal/client"
	"memhier/internal/cluster/ring"
	"memhier/internal/server"
)

// Config describes one node's view of the cluster. Every node must be
// given the same Peers, Replicas, VirtualNodes, and Seed.
type Config struct {
	// Self is this node's name; it must be a key of Peers.
	Self string
	// Peers maps every member name — including Self — to its base URL
	// (e.g. "http://10.0.0.7:8080").
	Peers map[string]string
	// Replicas is the number of owners per key (default 1). With 2, a
	// key's primary and one successor both accept it, so a hot key
	// survives its primary and forwarded load splits under failure.
	Replicas int
	// VirtualNodes is the ring points per node (default
	// ring.DefaultPoints). Seed selects an independent placement.
	VirtualNodes int
	Seed         uint64
	// ProbeInterval is the /readyz health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s).
	ProbeTimeout time.Duration
	// ClientOptions tunes the per-peer forwarding clients. The hop
	// marker header and single-base targeting are overlaid per peer;
	// retries default to 1 — the fallback ladder (next owner, then local
	// compute) is the real retry policy, so burning a full retry budget
	// per peer only adds latency.
	ClientOptions client.Options
}

// Cluster is one node's cluster state: the shared ring, one resilient
// client per peer, and the probed health view. It implements
// server.PeerForwarder. Safe for concurrent use.
type Cluster struct {
	self     string
	replicas int
	ring     *ring.Ring

	// clients and urls are immutable after New (no lock needed).
	clients map[string]*client.Client
	urls    map[string]string

	probeEvery   time.Duration
	probeTimeout time.Duration
	httpClient   *http.Client

	mu      sync.Mutex
	healthy map[string]bool   // guarded by mu; last probe verdict per peer
	lastErr map[string]string // guarded by mu; last probe failure per peer
	probes  uint64            // guarded by mu; completed probe rounds

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New validates the membership view and builds the node's cluster state.
// Call Start to begin background health probing (optional; peers start
// out presumed healthy, and the per-peer breakers catch dead ones on
// first contact).
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self name")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peer set", cfg.Self)
	}
	names := make([]string, 0, len(cfg.Peers))
	for name, url := range cfg.Peers {
		if url == "" {
			return nil, fmt.Errorf("cluster: peer %q has no base URL", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	r, err := ring.New(ring.Config{Nodes: names, Points: cfg.VirtualNodes, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(names) {
		cfg.Replicas = len(names)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}

	c := &Cluster{
		self:         cfg.Self,
		replicas:     cfg.Replicas,
		ring:         r,
		clients:      make(map[string]*client.Client, len(names)-1),
		urls:         make(map[string]string, len(names)),
		probeEvery:   cfg.ProbeInterval,
		probeTimeout: cfg.ProbeTimeout,
		healthy:      make(map[string]bool, len(names)-1),
		lastErr:      make(map[string]string, len(names)-1),
		stop:         make(chan struct{}),
	}
	opts := cfg.ClientOptions
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 1
	}
	if opts.Header == nil {
		opts.Header = http.Header{}
	} else {
		opts.Header = opts.Header.Clone()
	}
	// Every forwarded request carries the hop marker: the receiver
	// computes locally and, when draining, answers the draining body the
	// client treats as non-retryable.
	opts.Header.Set(server.ForwardedHeader, cfg.Self)
	c.httpClient = opts.HTTPClient
	if c.httpClient == nil {
		c.httpClient = &http.Client{Timeout: cfg.ProbeTimeout}
	}
	for _, name := range names {
		c.urls[name] = cfg.Peers[name]
		if name == cfg.Self {
			continue
		}
		c.clients[name] = client.New(cfg.Peers[name], opts)
		c.healthy[name] = true // presumed until a probe says otherwise
	}
	return c, nil
}

// Start launches background /readyz probing until Stop. It is a no-op
// for a single-node "cluster" (nothing to probe).
func (c *Cluster) Start() {
	if len(c.clients) == 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.probeEvery)
		defer t.Stop()
		c.Probe(context.Background())
		for {
			select {
			case <-t.C:
				c.Probe(context.Background())
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop ends background probing; idempotent.
func (c *Cluster) Stop() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Probe runs one health round: every peer's /readyz, in parallel,
// bounded by the probe timeout. A node that answers anything but 200 —
// including the draining 503 — is marked unusable for placement until a
// later round clears it.
func (c *Cluster) Probe(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for name := range c.clients {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			err := c.probeOne(ctx, name)
			c.mu.Lock()
			c.healthy[name] = err == nil
			if err != nil {
				c.lastErr[name] = err.Error()
			} else {
				delete(c.lastErr, name)
			}
			c.mu.Unlock()
		}(name)
	}
	wg.Wait()
	c.mu.Lock()
	c.probes++
	c.mu.Unlock()
}

// probeOne checks one peer's /readyz with the cluster's probe transport
// (not the forwarding client: a probe must not trip the data-path
// breaker, and must see draining as unready, not as an error to retry).
func (c *Cluster) probeOne(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[name]+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz returned %d", resp.StatusCode)
	}
	return nil
}

// ---- server.PeerForwarder ----

// Self returns this node's name.
func (c *Cluster) Self() string { return c.self }

// Place returns the usable owners of key, primary first, and whether
// this node is one of the key's owners. Peers that are probed-down or
// whose breaker is open are skipped — the caller's fallback ladder
// (remaining owners, then local compute) handles the rest.
func (c *Cluster) Place(key string) ([]string, bool) {
	owners := c.ring.Owners(key, c.replicas)
	usable := owners[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range owners {
		if name == c.self {
			return nil, true
		}
		if c.healthy[name] && !c.clients[name].BreakerOpen() {
			usable = append(usable, name)
		}
	}
	return usable, false
}

// Forward replays a canonical request body against peer's path with the
// original request ID. The peer client adds the hop marker, applies its
// (small) retry budget, and treats a draining answer as final.
//
//chc:hotpath
func (c *Cluster) Forward(ctx context.Context, peer, path, requestID string, body []byte) (server.ForwardResult, error) {
	cl, ok := c.clients[peer]
	if !ok {
		//chc:allow hotalloc -- cold path: misconfigured ring, request already failed
		return server.ForwardResult{}, fmt.Errorf("cluster: unknown peer %q", peer)
	}
	//chc:allow hotalloc -- Call's body parameter is any by API contract; RawMessage avoids the re-encode, boxing one header is the floor
	meta, err := cl.Call(ctx, path, requestID, json.RawMessage(body), nil)
	if err != nil {
		return server.ForwardResult{}, err
	}
	return server.ForwardResult{Status: meta.Status, Cache: meta.Cache, Body: meta.Body}, nil
}

// Stats reports the node's cluster view for /metrics: ring ownership,
// per-peer health and breaker state, and probe progress.
func (c *Cluster) Stats() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	peers := make(map[string]any, len(c.clients))
	for name, cl := range c.clients {
		p := map[string]any{
			"healthy":            c.healthy[name],
			"breaker_open":       cl.BreakerOpen(),
			"ownership_fraction": c.ring.OwnershipFraction(name),
		}
		if msg, ok := c.lastErr[name]; ok {
			p["last_error"] = msg
		}
		peers[name] = p
	}
	return map[string]any{
		"self":               c.self,
		"replicas":           c.replicas,
		"nodes":              len(c.clients) + 1,
		"ownership_fraction": c.ring.OwnershipFraction(c.self),
		"probes":             c.probes,
		"peers":              peers,
	}
}
