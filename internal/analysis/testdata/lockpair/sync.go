package fixture

import "crono/internal/exec"

// gate implements exec.Sync and nothing else: the synchronization half
// of what a platform plugs in behind an exec.Thread. The checkers must
// recognize it without it carrying any of exec.Model.
type gate struct{ inner exec.Ctx }

// Methods of a Sync acquire and release across method boundaries by
// design: Lock forwards a Lock and returns holding it.
func (g *gate) Lock(l exec.Lock)       { g.inner.Lock(l) }
func (g *gate) Unlock(l exec.Lock)     { g.inner.Unlock(l) }
func (g *gate) Barrier(b exec.Barrier) { g.inner.Barrier(b) }
func (g *gate) Checkpoint() error      { return g.inner.Checkpoint() }

// throughSync locks through the hook directly and is held to the kernel
// rule, by interface and by implementer alike.
func throughSync(s exec.Sync, g *gate, a, b exec.Lock) {
	s.Lock(a) // want `Ctx\.Lock\(a\) has no matching Ctx\.Unlock`
	g.Lock(b)
	g.Unlock(b)
}
