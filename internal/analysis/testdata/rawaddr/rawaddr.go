// Package fixture exercises the rawaddr checker.
package fixture

import "crono/internal/exec"

// hardCodedBase is the address-space squat the checker exists for.
const hardCodedBase = 0x4000

// rawLiteral annotates hard-coded addresses the platform never placed.
func rawLiteral(ctx exec.Ctx) {
	ctx.Load(64)                      // want `constant address 64`
	ctx.Store(exec.Addr(128))         // want `constant address exec\.Addr\(128\)`
	ctx.LoadSpan(hardCodedBase, 8, 4) // want `constant address hardCodedBase`
	ctx.StoreSpan(0, 4, 8)            // want `constant address 0`
}

// rawAtomic annotates hard-coded addresses through the atomic methods,
// which take logical addresses just like the plain ones.
func rawAtomic(ctx exec.Ctx) {
	ctx.AtomicLoad(64)             // want `constant address 64`
	ctx.AtomicStore(exec.Addr(96)) // want `constant address exec\.Addr\(96\)`
	ctx.AtomicRMW(hardCodedBase)   // want `constant address hardCodedBase`
}

// derived gets every address from the platform-placed region, which is
// the contract.
func derived(ctx exec.Ctx, r exec.Region) {
	ctx.Load(r.At(0))
	ctx.Store(r.At(1))
	ctx.LoadSpan(r.At(8), 8, 4)
	ctx.StoreSpan(r.Base, 4, 8)
	ctx.Load(r.At(2) + exec.LineSize)
	ctx.AtomicLoad(r.At(3))
	ctx.AtomicStore(r.At(4))
	ctx.AtomicRMW(r.At(5))
}

// computedOffset mixes a region address with runtime arithmetic; the
// result is not a compile-time constant, so it passes.
func computedOffset(ctx exec.Ctx, r exec.Region, i int) {
	ctx.Load(r.At(i))
	ctx.Store(r.Base + uint64(i)*uint64(r.ElemSize))
}
