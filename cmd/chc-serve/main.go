// Command chc-serve runs the memory-hierarchy prediction service: the
// Du–Zhang analytical model, budget optimizer, upgrade advisor, locality
// fitter, and execution-driven validator behind an HTTP JSON API.
//
// Endpoints:
//
//	POST /v1/predict   {"config":{"name":"C4"},"workload":{"name":"fft"}}
//	POST /v1/optimize  {"budget":5000,"workload":{"name":"radix"}}
//	POST /v1/advise    {"config":{"name":"C1"},"budget":3000,"workload":{"name":"tpcc"}}
//	POST /v1/fit       {"xs":[...],"ps":[...]}
//	POST /v1/validate  {"config":{"name":"C4"},"workload":"fft"}
//	POST /v1/sweep     {"configs":[...],"workloads":[...],"budgets":[...]}   (NDJSON stream)
//	POST /v1/batch     {"requests":[{...predict...},...]}                   (NDJSON stream)
//	GET  /healthz /readyz /metrics
//
// Identical requests are answered from a sharded LRU cache with
// single-flight deduplication; /v1/validate runs on a bounded worker pool
// that sheds load with 429 + Retry-After once the queue is full. SIGINT or
// SIGTERM triggers a graceful shutdown: /readyz starts failing, in-flight
// requests complete, then the process exits.
//
// Cluster mode: -node and -peers turn N chc-serve processes into one
// sharded response cache over a consistent-hash ring — each node
// forwards misses on peer-owned keys to the owner and falls back to
// local compute when the owner is down or draining. Every node must be
// started with the same -peers, -replicas, -vnodes, and -ring-seed.
// See README "Running a cluster".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memhier/internal/cluster"
	"memhier/internal/faults"
	"memhier/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheSize  = flag.Int("cache", 4096, "result cache entries")
		simWorkers = flag.Int("sim-workers", 0, "simulation workers (default: NumCPU)")
		simQueue   = flag.Int("sim-queue", 0, "simulation queue depth (default: 2x workers)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "analytical request deadline")
		simTimeout = flag.Duration("sim-timeout", 5*time.Minute, "/v1/validate deadline")
		sweepWork  = flag.Int("sweep-workers", 0, "grid evaluation workers per sweep (default: NumCPU)")
		sweepConc  = flag.Int("sweep-concurrency", 0, "concurrent streaming grids before shedding (default: 2)")
		sweepTime  = flag.Duration("sweep-timeout", 2*time.Minute, "/v1/sweep and /v1/batch deadline")
		sweepMax   = flag.Int("max-sweep-points", 0, "largest accepted grid (default: 4096)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
		faultName  = flag.String("faults", "", "inject faults from this profile (none, latency, errors, panics, saturation, timeouts, mixed); empty disables injection")
		faultSeed  = flag.Int64("faults-seed", 1, "fault injection seed (same seed, same fault sequence)")
		nodeName   = flag.String("node", "", "this node's name in cluster mode (must be a key of -peers)")
		peerList   = flag.String("peers", "", `cluster membership as "name=url,name=url,..." (every node, including this one); empty runs single-node`)
		replicas   = flag.Int("replicas", 1, "owners per key on the cluster ring (2 replicates hot keys)")
		vnodes     = flag.Int("vnodes", 0, "virtual ring points per node (default: ring's built-in)")
		ringSeed   = flag.Uint64("ring-seed", 0, "ring placement seed; must match on every node")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "peer /readyz health-probe period")
	)
	flag.Parse()

	cfg := server.Config{
		CacheEntries:     *cacheSize,
		SimWorkers:       *simWorkers,
		SimQueueDepth:    *simQueue,
		RequestTimeout:   *reqTimeout,
		SimTimeout:       *simTimeout,
		SweepWorkers:     *sweepWork,
		SweepConcurrency: *sweepConc,
		SweepTimeout:     *sweepTime,
		MaxSweepPoints:   *sweepMax,
	}
	if *faultName != "" {
		profile, err := faults.ProfileByName(*faultName)
		if err != nil {
			log.Fatalf("chc-serve: %v", err)
		}
		cfg.Faults = faults.NewInjector(profile, *faultSeed)
		log.Printf("chc-serve: fault injection enabled: profile %s, seed %d", profile.Name, *faultSeed)
	}

	var clu *cluster.Cluster
	if *peerList != "" {
		peers, err := parsePeers(*peerList)
		if err != nil {
			log.Fatalf("chc-serve: %v", err)
		}
		clu, err = cluster.New(cluster.Config{
			Self:          *nodeName,
			Peers:         peers,
			Replicas:      *replicas,
			VirtualNodes:  *vnodes,
			Seed:          *ringSeed,
			ProbeInterval: *probeEvery,
		})
		if err != nil {
			log.Fatalf("chc-serve: %v", err)
		}
		cfg.Forwarder = clu
		log.Printf("chc-serve: cluster mode: node %s, %d members, %d replica(s) per key", *nodeName, len(peers), *replicas)
	}

	s := server.New(cfg)
	s.Publish()
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if clu != nil {
		clu.Start()
	}
	log.Printf("chc-serve listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("chc-serve: %v", err)
	case sig := <-sigc:
		log.Printf("chc-serve: %v: draining", sig)
	}

	// Graceful shutdown: fail readiness first so load balancers and peer
	// probes stop routing here, then drain HTTP handlers, then the
	// simulation pool. Forwarded work arriving mid-drain is refused with
	// the draining body, telling peers to fall back to local compute.
	s.BeginDrain()
	if clu != nil {
		clu.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("chc-serve: shutdown: %v", err)
	}
	s.Close()
	log.Print("chc-serve: drained")
}

// parsePeers parses the -peers flag: comma-separated name=url pairs
// naming every cluster member, this node included.
func parsePeers(list string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf(`-peers entry %q is not "name=url"`, part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("-peers names %q twice", name)
		}
		peers[name] = url
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}
