// Package fixture exercises the checkpointloop checker.
package fixture

import "crono/internal/exec"

// unpolled is the liveness bug: a canceled run releases the barrier
// waiters, but nothing ever observes the cancellation, so the loop
// spins forever.
func unpolled(ctx exec.Ctx, b exec.Barrier) {
	for i := 0; i < 64; i++ { // want `never polls Ctx\.Checkpoint`
		ctx.Compute(1)
		ctx.Barrier(b)
	}
}

// unpolledRange has the same bug in range form.
func unpolledRange(ctx exec.Ctx, b exec.Barrier, vs []int32) {
	for range vs { // want `never polls Ctx\.Checkpoint`
		ctx.Barrier(b)
	}
}

// throughHelper synchronizes via a helper taking the barrier handle;
// the loop is just as stuck.
func throughHelper(ctx exec.Ctx, b exec.Barrier) {
	for { // want `never polls Ctx\.Checkpoint`
		syncRound(ctx, b)
	}
}

func syncRound(ctx exec.Ctx, b exec.Barrier) {
	ctx.Compute(1)
	ctx.Barrier(b)
}

// pollRound is a round-end helper in the shape of the worklist's
// endRound: it takes the barrier handle, polls for the loop and reports
// what it saw.
func pollRound(ctx exec.Ctx, b exec.Barrier) bool {
	ctx.Barrier(b)
	return ctx.Checkpoint() == nil
}

// helperIgnored calls the polling helper but drops its verdict: the
// helper notices the cancellation and the loop spins on regardless.
func helperIgnored(ctx exec.Ctx, b exec.Barrier) {
	for { // want `never polls Ctx\.Checkpoint`
		ctx.Compute(1)
		pollRound(ctx, b)
	}
}

// helperUntested keeps the verdict but never leaves the loop on it.
func helperUntested(ctx exec.Ctx, b exec.Barrier) int {
	live := 0
	for i := 0; i < 64; i++ { // want `never polls Ctx\.Checkpoint`
		if pollRound(ctx, b) {
			live++
		}
	}
	return live
}

// helperObserved returns on the helper's verdict, so the helper's poll
// is the loop's poll.
func helperObserved(ctx exec.Ctx, b exec.Barrier) {
	for {
		ctx.Compute(1)
		if !pollRound(ctx, b) {
			return
		}
	}
}

// helperObservedVar tests the verdict through a variable, the way the
// SSSP frontier loop keeps it to pick the next round's mode.
func helperObservedVar(ctx exec.Ctx, b exec.Barrier) {
	for {
		live := pollRound(ctx, b)
		switch {
		case !live:
			return
		}
	}
}

// discarded polls but throws the error away, which provides no
// liveness at all.
func discarded(ctx exec.Ctx, b exec.Barrier) {
	for {
		ctx.Barrier(b)
		ctx.Checkpoint() // want `result of Ctx\.Checkpoint is ignored`
	}
}

// blankAssigned is the same bug spelled with a blank assignment.
func blankAssigned(ctx exec.Ctx, b exec.Barrier) {
	for {
		ctx.Barrier(b)
		_ = ctx.Checkpoint() // want `result of Ctx\.Checkpoint is ignored`
	}
}

// polled is the canonical phase loop: barrier then checkpoint, error
// observed.
func polled(ctx exec.Ctx, b exec.Barrier) {
	for {
		ctx.Barrier(b)
		if ctx.Checkpoint() != nil {
			return
		}
	}
}

// hotLoop has no barrier, so it needs no poll: the kernel polls at the
// enclosing phase boundary instead.
func hotLoop(ctx exec.Ctx, r exec.Region, n int) {
	for v := 0; v < n; v++ {
		ctx.Load(r.At(v))
		ctx.Compute(1)
	}
}
