package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"crono/internal/exec"
	"crono/internal/native"
)

// TestWorklistRecycleProperty drives the worklist through randomized
// shrink-then-grow frontier schedules — the shape direction-optimizing BFS produces
// when a dense region drains into a thin cut and re-expands — through
// endRound, the real round-end choreography, and checks two invariants
// of the recycling in seal():
//
//  1. the array installed as the new frontier never aliases the frontier
//     threads processed this round (the recycled spare is always the
//     array retired one full round earlier, which no thread references);
//  2. after endRound, the merged frontier is exactly the per-thread
//     pushes concatenated in tid order.
func TestWorklistRecycleProperty(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw)%6 + 1

		// A schedule that shrinks to a trickle and grows back, repeated:
		// exactly the pattern that makes seal() alternate between the
		// recycle path (spare capacity suffices) and fresh allocation.
		var sizes []int
		cur := rng.Intn(150) + 50
		for phase := 0; phase < 3; phase++ {
			for cur > 1 {
				sizes = append(sizes, cur)
				cur = cur/(rng.Intn(3)+2) + 1
			}
			sizes = append(sizes, 1)
			for cur < 150 {
				sizes = append(sizes, cur)
				cur *= rng.Intn(3) + 2
			}
		}
		maxSize := 0
		for _, s := range sizes {
			if s > maxSize {
				maxSize = s
			}
		}

		seed0 := make([]int32, sizes[0])
		for i := range seed0 {
			seed0[i] = int32(i)
		}
		wl := newWorklist(p, seed0)

		pl := native.New()
		rFront := pl.Alloc("wl.frontier", maxSize, 4)
		bar := pl.NewBarrier(p)
		ok := true

		_, err := pl.RunCtx(context.Background(), p, func(ctx exec.Ctx) {
			tid := ctx.TID()
			for r := 0; r+1 < len(sizes); r++ {
				f := wl.frontier()
				want := sizes[r+1]
				lo, hi := chunk(tid, p, want)
				for i := lo; i < hi; i++ {
					wl.push(tid, int32((r+1)<<16|i))
				}
				// decide runs on thread 0 before the seal.
				decide := func(total int) int32 {
					if total != want {
						ok = false
					}
					return ctrlContinue
				}
				if wl.endRound(ctx, bar, rFront, decide) != ctrlContinue {
					return
				}
				if tid == 0 {
					nf := wl.frontier()
					// Invariant 1: live frontier f was retired to spare;
					// the installed array must be a different one.
					if len(f) > 0 && len(nf) > 0 && &nf[0] == &f[0] {
						ok = false
					}
					if len(f) > 0 && (len(wl.spare) == 0 || &wl.spare[0] != &f[0]) {
						ok = false // retired array should be the recycle candidate
					}
					// Invariant 2: merged contents in tid order.
					if len(nf) != want {
						ok = false
					}
					for i, v := range nf {
						if v != int32((r+1)<<16|i) {
							ok = false
						}
					}
				}
				ctx.Barrier(bar)
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
