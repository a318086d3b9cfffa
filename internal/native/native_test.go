package native

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/exec"
)

func TestAllocAlignedAndDisjoint(t *testing.T) {
	p := New()
	a := p.Alloc("a", 5, 4)
	b := p.Alloc("b", 100, 8)
	if a.Base%exec.LineSize != 0 || b.Base%exec.LineSize != 0 {
		t.Fatal("regions not line aligned")
	}
	if b.Base < a.Base+a.Bytes() {
		t.Fatal("regions overlap")
	}
}

// annotateInstr is what one call of annotate's body counts: 1 per access
// and atomic, 5 for the Compute, 10+3 for the spans.
const annotateInstr = 1 + 1 + 1 + 1 + 1 + 5 + 10 + 3

// annotate issues each of the nine annotations once.
func annotate(r exec.Region) func(exec.Ctx) {
	return func(c exec.Ctx) {
		c.Load(r.At(0))
		c.Store(r.At(1))
		c.AtomicLoad(r.At(2))
		c.AtomicStore(r.At(3))
		c.AtomicRMW(r.At(4))
		c.Compute(5)
		c.LoadSpan(r.At(0), 10, 4)
		c.StoreSpan(r.At(0), 3, 4)
		c.LoadSpan(r.At(0), 0, 4) // an empty span counts nothing
		c.StoreSpan(r.At(0), -1, 4)
		c.Active(1) // discarded natively
	}
}

func TestRunCountsInstructions(t *testing.T) {
	p := New()
	rep := p.Run(3, annotate(p.Alloc("x", 64, 4)))
	if rep.Threads != 3 {
		t.Fatalf("threads %d", rep.Threads)
	}
	for tid, n := range rep.Instructions {
		if n != annotateInstr {
			t.Fatalf("thread %d counted %d instructions, want %d", tid, n, annotateInstr)
		}
	}
	if rep.Time == 0 {
		t.Fatal("no elapsed time")
	}
	if len(rep.ThreadTime) != 3 {
		t.Fatal("missing per-thread times")
	}
	if rep.ActiveTrace != nil {
		t.Fatal("native run produced an active-vertex trace")
	}
}

// TestReusableCountsInstructions: a second run on the same platform
// starts from zeroed counters, and the first run's report is the
// caller's — the second run must not write into it.
func TestReusableCountsInstructions(t *testing.T) {
	p := New()
	body := annotate(p.Alloc("x", 64, 4))
	first := p.Run(3, body)
	second := p.Run(2, body)
	if first == second || len(first.Instructions) != 3 || len(second.Instructions) != 2 {
		t.Fatalf("reports alias or have wrong shape: %+v / %+v", first, second)
	}
	for _, rep := range []*exec.Report{first, second} {
		for tid, n := range rep.Instructions {
			if n != annotateInstr {
				t.Fatalf("%d-thread run: thread %d counted %d instructions, want %d", rep.Threads, tid, n, annotateInstr)
			}
		}
	}
}

func TestLocksProvideMutualExclusion(t *testing.T) {
	p := New()
	l := p.NewLock()
	counter := 0
	p.Run(8, func(c exec.Ctx) {
		for i := 0; i < 1000; i++ {
			c.Lock(l)
			counter++
			c.Unlock(l)
		}
	})
	if counter != 8000 {
		t.Fatalf("counter %d, want 8000 (lost updates)", counter)
	}
}

// waitPaths are a barrier waiter's two ways to wait. A run picks one
// for all its waits (RunInto): it parks at once when other goroutines
// exist, as they always do in a test binary, and spins first when it has
// the process to itself. The tests cross barriers through cross to run
// either.
var waitPaths = []waitPath{{"park", 0}, {"spin", spinBound}}

type waitPath struct {
	name string
	spin time.Duration
}

// cross is thread.Barrier on a chosen path.
func cross(p *Platform, c exec.Ctx, bar exec.Barrier, spin time.Duration) {
	bar.(*barrier).wait(p.thr[c.TID()], spin)
}

// arrived reports whether n waiters are held at b: parked on it, or, on
// the spinning path, counted in (a spinner holds no lock and publishes
// nothing else).
func arrived(p *Platform, b exec.Barrier, n int, spin time.Duration) bool {
	bb := b.(*barrier)
	if spin == 0 {
		parked := 0
		for _, c := range p.thr {
			if c.parked.Load() == bb {
				parked++
			}
		}
		return parked == n
	}
	bb.mu.Lock()
	defer bb.mu.Unlock()
	return bb.waiting == n
}

// crossPhases runs ten two-barrier rounds on bar's four parties and
// reports whether any thread saw a phase other than its own.
func crossPhases(p *Platform, bar exec.Barrier, spin time.Duration) (escaped bool) {
	var phase atomic.Int32
	var fail atomic.Bool
	p.Run(4, func(c exec.Ctx) {
		for round := int32(1); round <= 10; round++ {
			phase.Store(round)
			cross(p, c, bar, spin)
			if phase.Load() != round {
				fail.Store(true)
			}
			cross(p, c, bar, spin)
		}
	})
	return fail.Load()
}

func TestBarrierSynchronizesPhases(t *testing.T) {
	for _, path := range waitPaths {
		t.Run(path.name, func(t *testing.T) {
			p := New()
			if crossPhases(p, p.NewBarrier(4), path.spin) {
				t.Fatal("thread escaped a barrier early")
			}
		})
	}
}

// TestReusableBarrierSynchronizesPhases: a barrier outlives the run
// that made it (core.Scratch caches one per platform and thread count).
func TestReusableBarrierSynchronizesPhases(t *testing.T) {
	for _, path := range waitPaths {
		t.Run(path.name, func(t *testing.T) {
			p := New()
			bar := p.NewBarrier(4)
			for run := 0; run < 3; run++ {
				if crossPhases(p, bar, path.spin) {
					t.Fatalf("run %d: thread escaped a reused barrier early", run)
				}
			}
		})
	}
}

// TestRunSpinsOnlyWithTheProcessToItself: a test binary always has a
// goroutine beside the run's caller, as a server has, so its runs park;
// so do runs with more threads than processors.
func TestRunSpinsOnlyWithTheProcessToItself(t *testing.T) {
	p := New()
	for _, threads := range []int{1, 2, runtime.GOMAXPROCS(0) + 1} {
		p.Run(threads, func(c exec.Ctx) {
			if c.TID() == 0 && p.spin != 0 {
				t.Errorf("%d-thread run beside %d goroutines spins for %v", threads, runtime.NumGoroutine(), p.spin)
			}
		})
	}
}

func TestReusableGrowsAndShrinksThreads(t *testing.T) {
	p := New()
	for _, threads := range []int{2, 8, 1, 4} {
		var ran atomic.Int32
		rep := p.Run(threads, func(c exec.Ctx) {
			if c.Threads() != threads {
				t.Errorf("ctx threads %d, want %d", c.Threads(), threads)
			}
			ran.Add(1)
		})
		if int(ran.Load()) != threads || rep.Threads != threads {
			t.Fatalf("run with %d threads executed %d bodies", threads, ran.Load())
		}
		if len(rep.Instructions) != threads {
			t.Fatalf("report has %d instruction slots, want %d", len(rep.Instructions), threads)
		}
	}
}

func TestRunClampsThreadCount(t *testing.T) {
	p := New()
	rep := p.Run(0, func(c exec.Ctx) {
		if c.Threads() != 1 {
			t.Errorf("threads %d", c.Threads())
		}
	})
	if rep.Threads != 1 {
		t.Fatalf("report threads %d", rep.Threads)
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	p := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	rep, err := p.RunCtx(ctx, 4, func(exec.Ctx) { ran = true })
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

func TestRunCtxNilContextMeansBackground(t *testing.T) {
	p := New()
	//nolint:staticcheck // nil context is part of the documented contract
	rep, err := p.RunCtx(nil, 2, func(c exec.Ctx) { c.Compute(1) })
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Threads != 2 {
		t.Fatalf("bad report %+v", rep)
	}
}

func TestRunDelegatesToNeverCanceledRunCtx(t *testing.T) {
	p := New()
	rep := p.Run(3, func(c exec.Ctx) {
		if c.Checkpoint() != nil {
			t.Error("Checkpoint fired under Run")
		}
		c.Compute(1)
	})
	if rep == nil || rep.Threads != 3 {
		t.Fatalf("bad report %+v", rep)
	}
}

// TestRunCtxCancelReleasesBarrierWaiters cancels a run whose threads
// cross one barrier in a tight loop, so the abort lands on every mix of
// parked, arriving and departing threads.
func TestRunCtxCancelReleasesBarrierWaiters(t *testing.T) {
	for _, path := range waitPaths {
		t.Run(path.name, func(t *testing.T) {
			p := New()
			bar := p.NewBarrier(8)
			ctx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{})

			done := make(chan error, 1)
			go func() {
				_, err := p.RunCtx(ctx, 8, func(c exec.Ctx) {
					if c.TID() == 0 {
						close(started)
					}
					for {
						c.Compute(1)
						cross(p, c, bar, path.spin)
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
		})
	}
}

// abortPaths are waitPaths with a spin that only the generation or the
// abort ends, so the abort lands on a waiter that is still spinning.
var abortPaths = []waitPath{{"park", 0}, {"spin", time.Hour}}

// TestReusableCancellationReleasesBarrierWaiters: after thousands of
// runs that each made their own barrier (nothing may accumulate per
// barrier), a canceled run whose other threads are all parked at a
// barrier must release every one of them — thread 0 never arrives, so
// only the abort broadcast can — and leave the platform and that same
// barrier usable by the next run.
func TestReusableCancellationReleasesBarrierWaiters(t *testing.T) {
	const threads = 4
	for _, path := range abortPaths {
		t.Run(path.name, func(t *testing.T) {
			p := New()
			for i := 0; i < 2000; i++ {
				bar := p.NewBarrier(threads)
				p.Run(threads, func(c exec.Ctx) { c.Barrier(bar) })
			}

			bar := p.NewBarrier(threads)
			goCtx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := p.RunCtx(goCtx, threads, func(c exec.Ctx) {
					if c.TID() != 0 {
						cross(p, c, bar, path.spin)
						return
					}
					for c.Checkpoint() == nil {
						runtime.Gosched()
					}
				})
				done <- err
			}()
			for !arrived(p, bar, threads-1, path.spin) {
				runtime.Gosched()
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancellation did not release the barrier waiters")
			}

			var ran atomic.Int32
			p.Run(threads, func(c exec.Ctx) {
				cross(p, c, bar, path.spin)
				ran.Add(1)
			})
			if ran.Load() != threads {
				t.Fatalf("post-abort run executed %d bodies, want %d", ran.Load(), threads)
			}
		})
	}
}

// TestBarrierAbortedWaiterDoesNotCorruptReuse pins the withdrawal at the
// barrier itself, without a schedule to get lucky on: a lone arrival
// ended by an abort, parked or still spinning, must not stay counted, or
// the reused two-party barrier releases with one arrival. The ended
// thread leaves no goroutine behind.
func TestBarrierAbortedWaiterDoesNotCorruptReuse(t *testing.T) {
	for _, path := range abortPaths {
		t.Run(path.name, func(t *testing.T) {
			p := New()
			b := p.NewBarrier(2)
			base := runtime.NumGoroutine()
			goCtx, cancel := context.WithCancel(context.Background())
			_, err := p.RunCtx(goCtx, 2, func(c exec.Ctx) {
				if c.TID() == 1 {
					cross(p, c, b, path.spin) // lone arrival, ended by the abort
					t.Error("Barrier returned in an aborted run")
					return
				}
				for !arrived(p, b, 1, path.spin) {
					runtime.Gosched()
				}
				if path.spin != 0 && p.thr[1].parked.Load() != nil {
					t.Error("spinning waiter parked before the abort")
				}
				cancel()
				if c.Checkpoint() == nil {
					t.Error("Checkpoint missed the cancellation")
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			goroutinesSettle(t, base)

			released := make(chan struct{})
			p.Run(2, func(c exec.Ctx) {
				if c.TID() == 1 {
					cross(p, c, b, path.spin)
					close(released)
					return
				}
				select {
				case <-released:
					t.Error("reused barrier released with one arrival out of two")
					return
				case <-time.After(50 * time.Millisecond):
				}
				cross(p, c, b, path.spin) // second arrival completes the generation
			})
		})
	}
}

// goroutinesSettle fails t unless the goroutine count falls back to base:
// wg.Done runs in a thread's deferred exit, so give the exits a moment.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the runs, %d before", n, base)
	}
}

// TestConcurrentRunRefused: a platform runs one region at a time. The
// overlapping RunCtx gets an error and the run in progress is unharmed.
func TestConcurrentRunRefused(t *testing.T) {
	p := New()
	inside, release := make(chan struct{}), make(chan struct{})
	first := make(chan *exec.Report, 1)
	go func() {
		first <- p.Run(2, func(c exec.Ctx) {
			c.Compute(7)
			if c.TID() == 0 {
				close(inside)
			}
			<-release
		})
	}()
	<-inside
	rep, err := p.RunCtx(context.Background(), 2, func(c exec.Ctx) { c.Compute(1000) })
	if err == nil || rep != nil {
		t.Fatalf("overlapping run accepted: report %+v, err %v", rep, err)
	}
	close(release)
	got := <-first
	if got == nil || got.Instructions[0] != 7 || got.Instructions[1] != 7 {
		t.Fatalf("first run's counters disturbed by the refused run: %+v", got)
	}
	if _, err := p.RunCtx(context.Background(), 2, func(exec.Ctx) {}); err != nil {
		t.Fatalf("platform unusable after a refused run: %v", err)
	}
}

// TestNoGoroutineOutlivesRun: platforms are dropped without Close all
// over the repository (one per service run), so a run must leave no
// goroutine behind.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	for _, path := range waitPaths {
		t.Run(path.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				p := New()
				bar := p.NewBarrier(4)
				p.Run(4, func(c exec.Ctx) {
					c.Compute(1)
					cross(p, c, bar, path.spin)
				})
			}
			goroutinesSettle(t, base)
		})
	}
}

func TestReusableClosedRejectsRuns(t *testing.T) {
	p := New()
	p.Run(2, func(exec.Ctx) {})
	p.Close()
	p.Close() // idempotent
	if _, err := p.RunCtx(context.Background(), 2, func(exec.Ctx) {}); err == nil {
		t.Fatal("closed platform accepted a run")
	}
}

func TestReusableWarmRunAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	p := New()
	bar := p.NewBarrier(4)
	l := p.NewLock()
	annotations := annotate(p.Alloc("x", 64, 4))
	// Every annotation and every synchronization call, each round.
	body := func(c exec.Ctx) {
		for i := 0; i < 8; i++ {
			annotations(c)
			c.Lock(l)
			c.Unlock(l)
			c.Barrier(bar)
			if c.Checkpoint() != nil {
				return
			}
		}
	}
	var rep exec.Report
	run := func() {
		if err := p.RunInto(context.Background(), 4, body, &rep); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: per-thread state and the report's slices
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm RunInto allocates %.0f objects per run, want 0", n)
	}
	for tid, n := range rep.Instructions {
		if want := uint64(8 * (annotateInstr + 2)); n != want {
			t.Fatalf("thread %d counted %d instructions, want %d", tid, n, want)
		}
	}
}

// TestNewLocksSlab: exec.NewLocks on the native platform makes a
// per-vertex lock array in two allocations, and its handles are distinct
// working locks.
func TestNewLocksSlab(t *testing.T) {
	p := New()
	locks := exec.NewLocks(p, 64)
	if len(locks) != 64 || locks[0] == locks[1] {
		t.Fatalf("%d locks, first two equal: %v", len(locks), locks[0] == locks[1])
	}
	counter := 0
	p.Run(4, func(c exec.Ctx) {
		for i := 0; i < 500; i++ {
			c.Lock(locks[7])
			counter++
			c.Unlock(locks[7])
		}
	})
	if counter != 2000 {
		t.Fatalf("counter %d, want 2000: slab lock does not exclude", counter)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(10, func() { exec.NewLocks(p, 4096) }); n > 2 {
		t.Fatalf("NewLocks(4096) allocates %.0f objects, want at most 2", n)
	}
}

// BenchmarkAnnotate is what one annotation costs natively, issued through
// exec.Ctx exactly as a kernel issues it: with no exec.Model attached each
// is exec.Thread's counter bump inlined into the loop below, and of the
// address expression feeding it only Region.At's sign test is left. The
// figure is the latency of one add through memory, which a kernel's own
// loads overlap.
func BenchmarkAnnotate(b *testing.B) {
	p := New()
	r := p.Alloc("x", 1<<16, 4)
	for _, bc := range []struct {
		name string
		body func(c exec.Ctx, n int)
	}{
		{"Load", func(c exec.Ctx, n int) {
			for i := 0; i < n; i++ {
				c.Load(r.At(i & 0xffff))
			}
		}},
		{"AtomicLoad+Compute", func(c exec.Ctx, n int) {
			for i := 0; i < n; i++ {
				c.AtomicLoad(r.At(i & 0xffff))
				c.Compute(2)
			}
		}},
		{"LoadSpan", func(c exec.Ctx, n int) {
			for i := 0; i < n; i++ {
				c.LoadSpan(r.At(i&0xfff), i&15, 4)
			}
		}},
		{"LoadGather", func(c exec.Ctx, n int) {
			idx := []int32{7, 3, 11, 0, 5, 9, 2, 14, 1, 8, 12, 4, 15, 6, 10, 13}
			for i := 0; i < n; i++ {
				c.LoadGather(r, idx[:i&15], 1)
			}
		}},
		{"Sweep", func(c exec.Ctx, n int) {
			for i := 0; i < n; i++ {
				lo := i & 0xfff
				c.AtomicLoadSweep(r, lo, lo+(i&15))
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p.Run(1, func(c exec.Ctx) {
				b.ResetTimer()
				bc.body(c, b.N)
				b.StopTimer()
			})
		})
	}
}
