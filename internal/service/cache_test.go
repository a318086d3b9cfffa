package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	calls := 0
	compute := func() (any, error) { calls++; return 42, nil }

	v, started, err := c.Do(ctx, "k", compute)
	if err != nil || v.(int) != 42 || !started {
		t.Fatalf("first Do = (%v, %v, %v), want (42, true, nil)", v, started, err)
	}
	v, started, err = c.Do(ctx, "k", compute)
	if err != nil || v.(int) != 42 || started {
		t.Fatalf("second Do = (%v, %v, %v), want (42, false, nil)", v, started, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache(4)
	var calls atomic.Int64
	gate := make(chan struct{})
	const callers = 32

	var wg sync.WaitGroup
	var startedCount atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, started, err := c.Do(context.Background(), "k", func() (any, error) {
				<-gate // hold the computation open so callers pile up
				calls.Add(1)
				return "result", nil
			})
			if err != nil || v.(string) != "result" {
				t.Errorf("Do = (%v, %v)", v, err)
			}
			if started {
				startedCount.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times under %d concurrent callers, want 1", calls.Load(), callers)
	}
	if startedCount.Load() != 1 {
		t.Fatalf("%d callers reported started=true, want 1", startedCount.Load())
	}
	_, misses, _ := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(ctx, "k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do err = %v, want boom", err)
	}
	v, started, err := c.Do(ctx, "k", func() (any, error) { calls++; return 1, nil })
	if err != nil || !started || v.(int) != 1 {
		t.Fatalf("retry after error = (%v, %v, %v), want fresh computation", v, started, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	ctx := context.Background()
	put := func(k string) {
		if _, _, err := c.Do(ctx, k, func() (any, error) { return k, nil }); err != nil {
			t.Fatalf("Do(%s): %v", k, err)
		}
	}
	put("a")
	put("b")
	put("a") // touch a: b is now least recently used
	put("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	_, misses0, _ := c.Stats()
	put("a") // still resident: touching protected it from eviction
	_, misses1, _ := c.Stats()
	if misses1 != misses0 {
		t.Fatal("entry a was wrongly evicted")
	}
	put("b") // must recompute: b was the LRU victim
	_, misses2, _ := c.Stats()
	if misses2 != misses1+1 {
		t.Fatal("evicted entry b was still resident")
	}
}

// TestCacheKeepsReReadKey: a key that was read again survives a stream
// of one-off keys several times the capacity. A strict LRU evicts it
// after cap inserts without a read.
func TestCacheKeepsReReadKey(t *testing.T) {
	c := NewCache(256)
	ctx := context.Background()
	put := func(k string) {
		if _, _, err := c.Do(ctx, k, func() (any, error) { return k, nil }); err != nil {
			t.Fatalf("Do(%s): %v", k, err)
		}
	}
	put("hot")
	put("hot") // the hit
	for i := 0; i < 1000; i++ {
		put(fmt.Sprintf("miss-%d", i))
	}
	if c.Len() > 256 {
		t.Fatalf("Len = %d, over the capacity 256", c.Len())
	}
	_, misses0, _ := c.Stats()
	put("hot")
	if _, misses1, _ := c.Stats(); misses1 != misses0 {
		t.Fatal("the re-read key was evicted by one-off keys")
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache(4)
	gate := make(chan struct{})
	inFlight := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (any, error) { //nolint:errcheck
			close(inFlight)
			<-gate
			return 1, nil
		})
	}()
	<-inFlight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("coalesced waiter err = %v, want context.Canceled", err)
	}
	close(gate)
}

// TestCacheDeliveredResultWins pins the rule "a delivered result wins"
// for a coalesced waiter: when the computation it waits on has completed
// and its own context has ended too, it gets the result, whichever ready
// case select draws, so the call is checked many times. The entry
// stands as a waiter finds it, in flight (no list element), but with
// done already closed: the computation completed after the waiter
// joined it.
func TestCacheDeliveredResultWins(t *testing.T) {
	c := NewCache(4)
	e := &cacheEntry{key: "k", done: make(chan struct{}), val: 7}
	close(e.done)
	c.entries["k"] = e
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		v, started, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
		if err != nil || started || v != 7 {
			t.Fatalf("call %d: got (%v, %v, %v), want the delivered (7, false, nil)", i, v, started, err)
		}
	}
}

// TestCachePanicCompletesWaiters regression: a panic inside compute must
// complete the in-flight entry with an error (so coalesced waiters are
// released instead of blocking forever) and free the key for retry. On
// the pre-fix cache the waiter below times out and the retry coalesces
// onto the dead entry.
func TestCachePanicCompletesWaiters(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	inCompute := make(chan struct{})
	release := make(chan struct{})

	go func() {
		defer func() { recover() }() // the panic must reach the caller
		c.Do(ctx, "k", func() (any, error) {
			close(inCompute)
			<-release
			panic("boom")
		})
	}()

	<-inCompute
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (any, error) { return "unreachable", nil })
		waiter <- err
	}()
	// Let the waiter coalesce onto the in-flight entry, then blow it up.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("coalesced waiter got nil error from a panicked computation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("coalesced waiter still blocked after compute panicked")
	}

	// The key must not be poisoned: a fresh computation runs and caches.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, started, err := c.Do(ctx, "k", func() (any, error) { return 7, nil })
		if err != nil || !started || v.(int) != 7 {
			t.Errorf("retry after panic = (%v, %v, %v), want (7, true, nil)", v, started, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("retry after panic blocked: key is poisoned")
	}
}
