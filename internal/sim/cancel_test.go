package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/exec"
)

// TestRunCtxPreCanceled: a context canceled before RunCtx must fail fast
// without spawning any thread.
func TestRunCtxPreCanceled(t *testing.T) {
	m := mustMachine(t, smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	rep, err := m.RunCtx(ctx, 4, func(exec.Ctx) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("report %+v returned for canceled run", rep)
	}
	if ran {
		t.Fatal("body ran despite pre-canceled context")
	}
}

// TestRunCtxCancelMidFlight: canceling while every thread loops through a
// barrier must release all barrier waiters (no deadlock) and surface
// context.Canceled promptly.
func TestRunCtxCancelMidFlight(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(8)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, err := m.RunCtx(ctx, 8, func(c exec.Ctx) {
			if c.TID() == 0 {
				close(started)
			}
			for {
				c.Compute(1)
				c.Barrier(bar)
				if c.Checkpoint() != nil {
					return
				}
			}
		})
		done <- err
	}()

	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not abort within 10s: barrier waiters not released")
	}
}

// TestRunCtxDeadline: a deadline that expires mid-run surfaces
// context.DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := m.RunCtx(ctx, 4, func(c exec.Ctx) {
		for {
			c.Compute(1)
			c.Barrier(bar)
			if c.Checkpoint() != nil {
				return
			}
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunCtxCancelLeaksNoGoroutines: after an aborted run returns, every
// simulated thread goroutine must have exited.
func TestRunCtxCancelLeaksNoGoroutines(t *testing.T) {
	m := mustMachine(t, smallConfig())
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		bar := m.NewBarrier(8)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		_, err := m.RunCtx(ctx, 8, func(c exec.Ctx) {
			for {
				c.Compute(1)
				c.Barrier(bar)
				if c.Checkpoint() != nil {
					return
				}
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
	// RunCtx waits on its WaitGroup, so the workers are already gone;
	// allow a little slack for unrelated runtime goroutines.
	time.Sleep(20 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d: aborted runs leak threads", before, after)
	}
}

// TestRunCtxCompletedRunKeepsResult: a context canceled only after the
// run finishes must not retroactively fail it... but canceling during is
// the contract; here the context stays live and the run succeeds.
func TestRunCtxLiveContextSucceeds(t *testing.T) {
	m := mustMachine(t, smallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := m.RunCtx(ctx, 4, func(c exec.Ctx) { c.Compute(10) })
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Threads != 4 {
		t.Fatalf("bad report %+v", rep)
	}
}

// TestCheckpointFreeInVirtualTime: Checkpoint itself must not advance the
// simulated clock; a body with N checkpoints costs the same as without.
func TestCheckpointFreeInVirtualTime(t *testing.T) {
	run := func(poll bool) uint64 {
		m := mustMachine(t, smallConfig())
		rep, err := m.RunCtx(context.Background(), 2, func(c exec.Ctx) {
			for i := 0; i < 100; i++ {
				c.Compute(3)
				if poll && c.Checkpoint() != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Time
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("checkpoints charged simulated time: %d vs %d cycles", with, without)
	}
}

// TestBarrierAbortedWaiterDoesNotCorruptReuse regression, mirroring the
// native barrier audit: a waiter ended via the abort channel must
// withdraw its arrival, or a barrier reused by a later run releases with
// fewer than parties arrivals and desynchronizes its phases. The ended
// thread leaves no goroutine behind.
func TestBarrierAbortedWaiterDoesNotCorruptReuse(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(2)
	ctx, cancel := context.WithCancel(context.Background())
	var inBarrier atomic.Bool
	before := runtime.NumGoroutine()

	_, err := m.RunCtx(ctx, 2, func(c exec.Ctx) {
		if c.TID() == 0 {
			inBarrier.Store(true)
			c.Barrier(bar) // thread 1 never arrives; ended by the abort
			t.Error("Barrier returned in an aborted run")
			return
		}
		for !inBarrier.Load() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond) // let thread 0 block inside the barrier
		cancel()
		for c.Checkpoint() == nil { // first observer trips the abort
			time.Sleep(time.Millisecond)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second) // the threads' deferred exits
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d: the ended thread leaked", before, after)
	}

	// Reuse the same barrier in a fresh run: every phase must again need
	// both arrivals. With a stale count the second run both escapes
	// barriers early and strands its laggard thread at the end.
	var phase atomic.Int32
	var fail atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.RunCtx(context.Background(), 2, func(c exec.Ctx) {
			for round := int32(1); round <= 5; round++ {
				phase.Store(round)
				c.Barrier(bar)
				if phase.Load() != round {
					fail.Store(true)
				}
				c.Barrier(bar)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reused barrier deadlocked the follow-up run")
	}
	if fail.Load() {
		t.Fatal("thread escaped a reused barrier early")
	}
}

// TestDeadlockEndsRun: when every thread left is blocked — here thread 1
// waits for a lock that thread 0 took and never released before ending
// — the run ends with an error naming the blocked threads instead of
// hanging, and leaves no goroutine behind.
func TestDeadlockEndsRun(t *testing.T) {
	m := mustMachine(t, smallConfig())
	l := m.NewLock()
	bar := m.NewBarrier(2)
	before := runtime.NumGoroutine()
	_, err := m.RunCtx(context.Background(), 2, func(c exec.Ctx) {
		if c.TID() == 0 {
			c.Lock(l)
			c.Barrier(bar)
			return
		}
		c.Barrier(bar)
		c.Lock(l)
		t.Error("Lock returned a lock its holder never released")
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock: threads [1]") {
		t.Fatalf("err = %v, want a deadlock of thread 1", err)
	}
	deadline := time.Now().Add(5 * time.Second) // the last thread's deferred exit
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d: the blocked thread leaked", before, after)
	}
}
