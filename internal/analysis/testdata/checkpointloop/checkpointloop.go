// Package fixture exercises the checkpointloop checker.
package fixture

import "crono/internal/exec"

// discarded polls but throws the error away, which stops nothing.
func discarded(ctx exec.Ctx, r exec.Region, n int) {
	for v := 0; v < n; v++ {
		ctx.Load(r.At(v))
		ctx.Checkpoint() // want `result of Ctx\.Checkpoint is ignored`
	}
}

// blankAssigned is the same bug spelled with a blank assignment.
func blankAssigned(ctx exec.Ctx, r exec.Region, n int) {
	for v := 0; v < n; v++ {
		ctx.Load(r.At(v))
		_ = ctx.Checkpoint() // want `result of Ctx\.Checkpoint is ignored`
	}
}

// polled is a long barrier-free loop that polls and stops on the error.
func polled(ctx exec.Ctx, r exec.Region, n int) {
	for v := 0; v < n; v++ {
		if ctx.Checkpoint() != nil {
			return
		}
		ctx.Load(r.At(v))
	}
}

// rounds is a barrier-bearing loop: it needs no poll, because in an
// aborted run the barrier ends the thread.
func rounds(ctx exec.Ctx, b exec.Barrier) {
	for {
		ctx.Compute(1)
		ctx.Barrier(b)
	}
}
