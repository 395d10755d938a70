package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
)

// plain is f as a computation of a bare Server: no fault injection, no
// cluster placement.
func plain(f func() (entry, error)) computation {
	return computation{s: &Server{}, compute: f}
}

func ok(body string) computation {
	return plain(func() (entry, error) { return entry{status: 200, body: []byte(body)}, nil })
}

func TestCacheHitAndMiss(t *testing.T) {
	c := newResultCache(8, 2)
	ctx := context.Background()

	ent, how, _, err := c.do(ctx, "k", ok("v1"))
	if err != nil || how != outcomeMiss || string(ent.body) != "v1" {
		t.Fatalf("first do = %q %v %v", ent.body, how, err)
	}
	// A hit runs no computation and is answered before the context is
	// consulted: even a requester whose deadline has passed gets it.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	ent, how, _, err = c.do(expired, "k", plain(func() (entry, error) {
		t.Error("a cache hit ran the computation")
		return entry{}, errors.New("unreachable")
	}))
	if err != nil || how != outcomeHit || string(ent.body) != "v1" {
		t.Fatalf("second do = %q %v %v, want cached v1", ent.body, how, err)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(4, 1) // one shard, capacity 4
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		c.do(ctx, fmt.Sprintf("k%d", i), ok("v"))
	}
	// Touch k0 so k1 is the LRU victim.
	if _, how, _, _ := c.do(ctx, "k0", ok("x")); how != outcomeHit {
		t.Fatalf("k0 = %v, want hit", how)
	}
	c.do(ctx, "k4", ok("v")) // evicts k1
	if _, how, _, _ := c.do(ctx, "k1", ok("recomputed")); how != outcomeMiss {
		t.Errorf("k1 after eviction = %v, want miss", how)
	}
	if _, how, _, _ := c.do(ctx, "k0", ok("x")); how != outcomeHit {
		t.Errorf("k0 = %v, want hit (recently used, not evicted)", how)
	}
	if c.len() != 4 {
		t.Errorf("len = %d, want capacity 4", c.len())
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(8, 1)
	ctx := context.Background()

	boom := errors.New("boom")
	_, how, _, err := c.do(ctx, "k", plain(func() (entry, error) { return entry{}, boom }))
	if how != outcomeMiss || err != boom {
		t.Fatalf("do = %v %v", how, err)
	}
	// Non-2xx results are shared with waiters but not cached either.
	c.do(ctx, "k4xx", plain(func() (entry, error) { return entry{status: 400, body: []byte("bad")}, nil }))
	if c.len() != 0 {
		t.Fatalf("len = %d after error and 4xx, want 0", c.len())
	}
	if _, how, _, err = c.do(ctx, "k", ok("fine")); how != outcomeMiss || err != nil {
		t.Errorf("retry = %v %v, want a fresh miss", how, err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newResultCache(8, 4)
	const waiters = 16
	var computations atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, how, _, err := c.do(context.Background(), "same", plain(func() (entry, error) {
				computations.Add(1)
				<-release
				return entry{status: 200, body: []byte("shared")}, nil
			}))
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			outcomes[i] = how
		}(i)
	}
	// Wait until one goroutine holds the flight, then release. Spin rather
	// than sleep: the leader increments before blocking on release.
	for computations.Load() == 0 {
	}
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("computations = %d, want 1", n)
	}
	var misses int
	for _, how := range outcomes {
		if how == outcomeMiss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 leader", misses)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newResultCache(8, 1)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go c.do(context.Background(), "k", plain(func() (entry, error) {
		close(leaderIn)
		<-release
		return entry{status: 200, body: []byte("late")}, nil
	}))
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := c.do(ctx, "k", ok("unused"))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestCacheLeaderOutlivesRequester: the cache owns the computation. A
// leader whose context ends leaves with outcomeLeft, but its flight runs
// to completion and caches the result for the next caller.
func TestCacheLeaderOutlivesRequester(t *testing.T) {
	c := newResultCache(8, 1)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var computations atomic.Int64
	_, how, _, err := c.do(ctx, "k", plain(func() (entry, error) {
		computations.Add(1)
		<-release
		return entry{status: 200, body: []byte("finished")}, nil
	}))
	if how != outcomeLeft || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader = %v %v, want outcomeLeft with context.Canceled", how, err)
	}
	close(release)
	// The flight is still open until its computation publishes, so this
	// call either joins it or hits the entry it left; it never recomputes.
	ent, how, _, err := c.do(context.Background(), "k", ok("recomputed"))
	if err != nil || string(ent.body) != "finished" || (how != outcomeShared && how != outcomeHit) {
		t.Fatalf("after the leader left: %q %v %v, want the leader's result", ent.body, how, err)
	}
	if _, how, _, _ := c.do(context.Background(), "k", ok("recomputed")); how != outcomeHit {
		t.Errorf("third do = %v, want hit", how)
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
}

// TestShardHashMatchesFNV pins the inlined shard hash to hash/fnv's
// FNV-1a: cached keys must keep their shard across the inlining.
func TestShardHashMatchesFNV(t *testing.T) {
	c := newResultCache(64, 8)
	for _, key := range []string{"", "a", "predict\x00{}", "sweep\x00{\"sizes\":[1,2,4]}", "Ωunicode\x00body"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := c.shards[h.Sum32()%uint32(len(c.shards))]
		if got := c.shard(key); got != want {
			t.Errorf("shard(%q) diverged from FNV-1a placement", key)
		}
	}
}
