// Package fixture exercises the simdeterminism checker. The harness
// marks this package sim-visible, standing in for internal/sim,
// internal/core and the other packages whose annotation streams must be
// identical run to run.
package fixture

import (
	"math/rand" // want `math/rand imported in sim-visible package`
	"time"

	"crono/internal/exec"
)

// wallClock reads the host clock, which differs on every run.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in sim-visible package`
}

// elapsed measures with the wall clock too.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since in sim-visible package`
}

// randomized consumes the seeded-from-entropy global generator.
func randomized() int {
	return rand.Intn(8)
}

// mapFeedsAnnotations issues loads in Go's randomized map order, so the
// simulator sees a different access sequence on every run.
func mapFeedsAnnotations(ctx exec.Ctx, r exec.Region, weights map[int32]int64) int64 {
	var sum int64
	for c, w := range weights { // want `map iteration order is randomized`
		ctx.Load(r.At(int(c)))
		ctx.Compute(1)
		sum += w
	}
	return sum
}

// mapFeedsAtomics claims map entries with atomic annotations only; the
// simulator charges each one like a plain access, so the order matters
// just as much.
func mapFeedsAtomics(ctx exec.Ctx, r exec.Region, claims map[int32]bool) {
	for c := range claims { // want `issues Ctx\.AtomicRMW annotations`
		ctx.AtomicRMW(r.At(int(c)))
	}
	for c := range claims { // want `issues Ctx\.AtomicLoad annotations`
		ctx.AtomicLoad(r.At(int(c)))
	}
	for c := range claims { // want `issues Ctx\.AtomicStore annotations`
		ctx.AtomicStore(r.At(int(c)))
	}
}

// mapFeedsGather gathers each map entry's neighbor list: the per-element
// stream a Model replays follows the map's order.
func mapFeedsGather(ctx exec.Ctx, r exec.Region, adj map[int32][]int32) {
	for _, ns := range adj { // want `issues Ctx\.LoadGather annotations`
		ctx.LoadGather(r, ns, 1)
	}
}

// mapFeedsSweep flushes one skipped stretch per map entry: the
// per-element stream a Model replays follows the map's order.
func mapFeedsSweep(ctx exec.Ctx, r exec.Region, stretches map[int]int) {
	for lo, hi := range stretches { // want `issues Ctx\.AtomicLoadSweep annotations`
		ctx.AtomicLoadSweep(r, lo, hi)
	}
}

// mapPure ranges over a map without annotating, which is fine: the
// result is order-independent and nothing reaches the simulator.
func mapPure(weights map[int32]int64) int64 {
	var sum int64
	for _, w := range weights {
		sum += w
	}
	return sum
}

// sliceOrdered is the required idiom: annotation order follows a
// deterministically built slice.
func sliceOrdered(ctx exec.Ctx, r exec.Region, keys []int32, weights map[int32]int64) int64 {
	var sum int64
	for _, c := range keys {
		ctx.Load(r.At(int(c)))
		sum += weights[c]
	}
	return sum
}

// durationArithmetic uses time only for constants, which is
// deterministic and allowed.
func durationArithmetic(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}
