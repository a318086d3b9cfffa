package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is an LRU result cache with in-flight request coalescing: the
// first caller of a key runs the computation, concurrent callers of the
// same key block on its completion, and later callers hit the stored
// value. Failed computations are not cached, so a transient error does not
// poison the key. Eviction is strict LRU over completed entries; in-flight
// entries are never evicted.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // completed entries, front = most recently used

	// Counters are externally registered (see Server.newMetrics) so the
	// cache itself stays metrics-agnostic in tests.
	hits, misses, coalesced *Counter
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when val/err are set
	val  any
	err  error
	elem *list.Element // non-nil once completed and resident in the LRU
}

// NewCache returns a cache holding at most capacity completed results.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:       capacity,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		hits:      &Counter{},
		misses:    &Counter{},
		coalesced: &Counter{},
	}
}

// SetCounters redirects the cache's hit/miss/coalesced accounting to
// externally registered counters (the server points them at its metrics
// registry). Call before first use.
func (c *Cache) SetCounters(hits, misses, coalesced *Counter) {
	c.hits, c.misses, c.coalesced = hits, misses, coalesced
}

// Stats returns the hit, miss and coalesced-wait counters.
func (c *Cache) Stats() (hits, misses, coalesced uint64) {
	return c.hits.Value(), c.misses.Value(), c.coalesced.Value()
}

// Len returns the number of completed resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Do returns the value for key, computing it with compute if absent.
// Exactly one caller runs compute per in-flight key; concurrent callers
// coalesce onto that computation. started reports whether this call ran
// the computation (i.e. the result was not served from cache or a
// coalesced wait). If ctx expires while waiting on another caller's
// computation, Do returns ctx.Err().
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (val any, started bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed: a straight hit
			c.lru.MoveToFront(e.elem)
			c.hits.Inc()
			c.mu.Unlock()
			return e.val, false, nil
		}
		// In flight: coalesce onto the running computation.
		c.coalesced.Inc()
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.val, false, e.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses.Inc()
	c.mu.Unlock()

	// A panicking compute must still complete the entry: coalesced
	// waiters block on done, and the key would otherwise stay in-flight
	// forever — never evictable, never retryable. Fail the entry, free
	// the key, then let the panic continue up this caller's stack.
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			e.err = fmt.Errorf("cache: compute panicked: %v", r)
			close(e.done)
			panic(r)
		}
	}()

	e.val, e.err = compute()

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.cap {
			old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
			delete(c.entries, old.key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, true, e.err
}
