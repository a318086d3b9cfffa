// Package racykernels holds deliberately buggy kernels used as
// racecheck fixtures. Each kernel annotates a synchronization mistake
// the detector must catch; the golden tests pin the exact reports.
//
// The kernels are only ever run on the standalone racecheck platform:
// its cooperative scheduler serializes the threads, so the Go-level
// accesses below are NOT real data races under `go test -race` — only
// the annotation stream is racy.
package racykernels

import (
	"context"

	"crono/internal/exec"
)

// SharedCounter increments one shared counter from every thread with
// plain annotations and no lock: the classic unlocked read-modify-write.
// Every pair of threads races on counter[0] with read/write and
// write/write conflicts.
func SharedCounter(pl exec.Platform, threads, incs int) (int, *exec.Report, error) {
	counter := 0
	r := pl.Alloc("racy.counter", 1, 8)
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		for i := 0; i < incs; i++ {
			ctx.Load(r.At(0))
			v := counter
			ctx.Compute(1)
			ctx.Store(r.At(0))
			counter = v + 1
		}
	})
	return counter, rep, err
}

// MissingBarrier writes per-thread chunks of a shared array and then
// reads the next thread's chunk without an intervening barrier: the
// classic forgotten phase separation. Every cross-chunk read races with
// the owning thread's initializing write.
func MissingBarrier(pl exec.Platform, threads, perThread int) ([]int32, *exec.Report, error) {
	n := threads * perThread
	data := make([]int32, n)
	out := make([]int32, n)
	r := pl.Alloc("racy.data", n, 4)
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo := tid * perThread
		for i := 0; i < perThread; i++ {
			data[lo+i] = int32(lo + i)
			ctx.Store(r.At(lo + i))
		}
		// BUG: a ctx.Barrier belongs here.
		nlo := ((tid + 1) % threads) * perThread
		for i := 0; i < perThread; i++ {
			ctx.Load(r.At(nlo + i))
			out[nlo+i] = data[nlo+i]
		}
	})
	return out, rep, err
}

// GatherMissingBarrier is MissingBarrier with the cross-chunk reads
// issued as one LoadGather. Every gathered read races with the owning
// thread's write, and the report must name the LoadGather line below, not
// the exec code that replays the gather element by element.
func GatherMissingBarrier(pl exec.Platform, threads, perThread int) ([]int32, *exec.Report, error) {
	n := threads * perThread
	data := make([]int32, n)
	out := make([]int32, n)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	r := pl.Alloc("racy.gathered", n, 4)
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo := tid * perThread
		for i := 0; i < perThread; i++ {
			data[lo+i] = int32(lo + i)
			ctx.Store(r.At(lo + i))
		}
		// BUG: a ctx.Barrier belongs here.
		nlo := ((tid + 1) % threads) * perThread
		next := ids[nlo : nlo+perThread]
		ctx.LoadGather(r, next, 1)
		for _, i := range next {
			out[i] = data[i]
		}
	})
	return out, rep, err
}

// SweepMissingBarrier is MissingBarrier with the cross-chunk reads
// issued as one LoadSweep, each element tested as a sweeping kernel
// tests its vertices. Every swept read races with the owning thread's
// write, and the report must name the LoadSweep line below, not the exec
// code that replays the sweep element by element.
func SweepMissingBarrier(pl exec.Platform, threads, perThread int) (int, *exec.Report, error) {
	n := threads * perThread
	data := make([]int32, n)
	seen := make([]int, threads)
	r := pl.Alloc("racy.swept", n, 4)
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo := tid * perThread
		for i := 0; i < perThread; i++ {
			data[lo+i] = 1
			ctx.Store(r.At(lo + i))
		}
		// BUG: a ctx.Barrier belongs here.
		nlo := ((tid + 1) % threads) * perThread
		for i := nlo; i < nlo+perThread; i++ {
			seen[tid] += int(data[i])
		}
		ctx.LoadSweep(r, nlo, nlo+perThread)
	})
	total := 0
	for _, s := range seen {
		total += s
	}
	return total, rep, err
}

// FixedCounter is SharedCounter with the lock it was missing; the
// detector must report nothing for it.
func FixedCounter(pl exec.Platform, threads, incs int) (int, *exec.Report, error) {
	counter := 0
	r := pl.Alloc("fixed.counter", 1, 8)
	l := pl.NewLock()
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		for i := 0; i < incs; i++ {
			ctx.Lock(l)
			ctx.Load(r.At(0))
			v := counter
			ctx.Compute(1)
			ctx.Store(r.At(0))
			counter = v + 1
			ctx.Unlock(l)
		}
	})
	return counter, rep, err
}

// FixedBarrier is MissingBarrier with the barrier restored; the
// detector must report nothing for it.
func FixedBarrier(pl exec.Platform, threads, perThread int) ([]int32, *exec.Report, error) {
	n := threads * perThread
	data := make([]int32, n)
	out := make([]int32, n)
	r := pl.Alloc("fixed.data", n, 4)
	bar := pl.NewBarrier(threads)
	rep, err := pl.RunCtx(context.Background(), threads, func(ctx exec.Ctx) {
		tid := ctx.TID()
		lo := tid * perThread
		for i := 0; i < perThread; i++ {
			data[lo+i] = int32(lo + i)
			ctx.Store(r.At(lo + i))
		}
		ctx.Barrier(bar)
		nlo := ((tid + 1) % threads) * perThread
		for i := 0; i < perThread; i++ {
			ctx.Load(r.At(nlo + i))
			out[nlo+i] = data[nlo+i]
		}
	})
	return out, rep, err
}
