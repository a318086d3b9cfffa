package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is a segmented-LRU result cache with in-flight request
// coalescing: the first caller of a key runs the computation, concurrent
// callers of the same key block on its completion, and later callers hit
// the stored value. Failed computations are not cached, so a transient
// error does not poison the key. A completed entry enters the probation
// list; a hit moves it to the protected list, which holds at most half
// the capacity and demotes its least recently used entry back to the
// front of probation. Eviction takes probation's least recently used
// entry, so a stream of keys that are never read again cannot push out
// a key that was. In-flight entries are never evicted.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	// Completed entries, front = most recently used.
	probation, protected *list.List

	// Counters are externally registered (see Server.newMetrics) so the
	// cache itself stays metrics-agnostic in tests.
	hits, misses, coalesced *Counter
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when val/err are set
	val  any
	err  error
	elem *list.Element // non-nil once completed and resident
	// protected reports which list elem is on.
	protected bool
}

// NewCache returns a cache holding at most capacity completed results.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:       capacity,
		entries:   make(map[string]*cacheEntry),
		probation: list.New(),
		protected: list.New(),
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
	return c.probation.Len() + c.protected.Len()
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
			c.promote(e)
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
		e.elem = c.probation.PushFront(e)
		// The protected list holds at most cap/2, so probation is never
		// empty while the cache is over capacity.
		for c.probation.Len()+c.protected.Len() > c.cap {
			old := c.probation.Remove(c.probation.Back()).(*cacheEntry)
			delete(c.entries, old.key)
		}
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, true, e.err
}

// promote records a hit on the completed entry e: it goes to the front of
// the protected list, and protected's overflow returns to the front of
// probation. Callers hold c.mu.
func (c *Cache) promote(e *cacheEntry) {
	if e.protected {
		c.protected.MoveToFront(e.elem)
		return
	}
	c.probation.Remove(e.elem)
	e.elem, e.protected = c.protected.PushFront(e), true
	if c.protected.Len() > c.cap/2 {
		old := c.protected.Remove(c.protected.Back()).(*cacheEntry)
		old.elem, old.protected = c.probation.PushFront(old), false
	}
}
