package server

import (
	"container/list"
	"context"
	"sync"
)

// entry is one cached response: the HTTP status and the exact body bytes.
// Caching rendered bytes (rather than decoded values) is what makes cache
// hits byte-identical to the miss that produced them.
type entry struct {
	status int
	body   []byte
}

// outcome classifies how a request was answered by the cache layer.
type outcome int

const (
	outcomeHit    outcome = iota // served from the LRU
	outcomeMiss                  // this request ran the computation
	outcomeShared                // waited on an identical in-flight request
	outcomeLeft                  // the requester's ctx ended before the flight did
)

// flight is one in-progress computation that concurrent identical
// requests attach to.
type flight struct {
	done chan struct{} // closed when ent/err/note are final
	ent  entry
	err  error
	note forwardNote // how the leader's computation was placed
}

// cacheShard is one lock domain of the result cache: an LRU of completed
// entries plus the in-flight table for single-flight dedup.
type cacheShard struct {
	mu      sync.Mutex
	cap     int                      // immutable after construction
	order   *list.List               // guarded by mu; front = most recently used
	items   map[string]*list.Element // guarded by mu; key → element holding *cacheItem
	flights map[string]*flight       // guarded by mu
}

type cacheItem struct {
	key string
	ent entry
}

// resultCache shards keys across independent LRUs so concurrent requests
// on different keys do not contend on one lock, and dedups concurrent
// identical requests through per-key flights.
type resultCache struct {
	shards []*cacheShard
}

// newResultCache builds a cache holding up to entries results across the
// given number of shards (minimums of one entry per shard, one shard).
func newResultCache(entries, shards int) *resultCache {
	if shards < 1 {
		shards = 1
	}
	if entries < shards {
		entries = shards
	}
	c := &resultCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:     entries / shards,
			order:   list.New(),
			items:   make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// FNV-1a constants (hash/fnv), inlined so shard hashes the key string
// directly — the hash.Hash32 version allocated the hasher and a []byte
// copy of the key on every cache operation.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shard picks the consistent shard for key. It runs once per cache
// operation, on the request hit path. The hash is bit-identical to
// fnv.New32a over the same bytes (TestShardHashMatchesFNV), so cached
// keys keep their shard across this change.
//
//chc:hotpath
func (c *resultCache) shard(key string) *cacheShard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return c.shards[h%uint32(len(c.shards))]
}

// do answers key from the cache or from the key's flight. A hit is
// answered synchronously, before ctx is consulted. Otherwise the caller
// joins the key's flight, or opens it as the leader and starts comp on
// the flight's own goroutine; leader and waiters then wait alike, on the
// flight or on their own ctx. The cache owns the computation and a
// requester owns only its wait: comp runs exactly once across all
// concurrent callers with the same key and always runs to completion, so
// a requester whose ctx ends first (outcomeLeft, ctx.Err()) leaves the
// result to be cached for the next caller. Successful (2xx) results enter
// the LRU; errors and non-2xx entries are shared with the flight's waiters
// but not cached, so a transient failure doesn't poison the key. Only the
// leader gets the flight's forwardNote.
//
//chc:hotpath
func (c *resultCache) do(ctx context.Context, key string, comp computation) (entry, outcome, forwardNote, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if ent, ok := sh.hitLocked(key); ok {
		sh.mu.Unlock()
		return ent, outcomeHit, forwardNote{}, nil
	}
	f, joined := sh.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		sh.flights[key] = f
	}
	sh.mu.Unlock()
	if !joined {
		go sh.lead(ctx, key, f, comp)
	}
	select {
	case <-f.done:
		if joined {
			return f.ent, outcomeShared, forwardNote{}, f.err
		}
		return f.ent, outcomeMiss, f.note, f.err
	case <-ctx.Done():
		return entry{}, outcomeLeft, forwardNote{}, ctx.Err()
	}
}

// lead runs a flight's computation, publishes its result to the flight
// and, on success, to the LRU.
func (sh *cacheShard) lead(ctx context.Context, key string, f *flight, comp computation) {
	f.ent, f.err = comp.run(ctx, key, &f.note)
	sh.mu.Lock()
	delete(sh.flights, key)
	if f.err == nil && f.ent.status >= 200 && f.ent.status < 300 {
		sh.insertLocked(key, f.ent)
	}
	sh.mu.Unlock()
	close(f.done)
}

// hitLocked returns the cached entry for key and marks it most recently
// used. The caller holds sh.mu.
//
//chc:hotpath
func (sh *cacheShard) hitLocked(key string) (entry, bool) {
	el, ok := sh.items[key]
	if !ok {
		return entry{}, false
	}
	sh.order.MoveToFront(el)
	return el.Value.(*cacheItem).ent, true
}

// insertLocked adds the entry, evicting from the LRU tail past capacity.
// The caller holds sh.mu — the Locked suffix is the guardedby analyzer's
// contract for helpers that run under a caller's lock.
func (sh *cacheShard) insertLocked(key string, ent entry) {
	if el, ok := sh.items[key]; ok {
		el.Value.(*cacheItem).ent = ent
		sh.order.MoveToFront(el)
		return
	}
	sh.items[key] = sh.order.PushFront(&cacheItem{key: key, ent: ent})
	for sh.order.Len() > sh.cap {
		tail := sh.order.Back()
		sh.order.Remove(tail)
		delete(sh.items, tail.Value.(*cacheItem).key)
	}
}

// len reports the number of cached entries (for tests and /metrics).
func (c *resultCache) len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
