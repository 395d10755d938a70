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
)

// flight is one in-progress computation that concurrent identical
// requests attach to.
type flight struct {
	done chan struct{} // closed when ent/err are final
	ent  entry
	err  error
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

// do returns the cached entry for key, or runs compute exactly once across
// all concurrent callers with the same key. Successful (2xx) results enter
// the LRU; errors and non-2xx entries are shared with concurrent waiters
// but not cached, so a transient failure doesn't poison the key. A waiter
// whose ctx expires abandons the wait (the leader still completes and
// caches for future callers).
//
//chc:hotpath
func (c *resultCache) do(ctx context.Context, key string, compute func() (entry, error)) (entry, outcome, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.order.MoveToFront(el)
		ent := el.Value.(*cacheItem).ent
		sh.mu.Unlock()
		return ent, outcomeHit, nil
	}
	if f, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.ent, outcomeShared, f.err
		case <-ctx.Done():
			return entry{}, outcomeShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()

	f.ent, f.err = compute()

	sh.mu.Lock()
	delete(sh.flights, key)
	if f.err == nil && f.ent.status >= 200 && f.ent.status < 300 {
		sh.insertLocked(key, f.ent)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.ent, outcomeMiss, f.err
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
