package fixture

import "crono/internal/exec"

// tally implements exec.Model and nothing else: the memory half of what
// a platform plugs in behind an exec.Thread. The checkers must recognize
// it without it carrying any of exec.Sync.
type tally struct{ n uint64 }

func (m *tally) Load(exec.Addr)        { m.n++ }
func (m *tally) Store(exec.Addr)       { m.n++ }
func (m *tally) AtomicLoad(exec.Addr)  { m.n++ }
func (m *tally) AtomicStore(exec.Addr) { m.n++ }
func (m *tally) AtomicRMW(exec.Addr)   { m.n++ }
func (m *tally) Compute(n int)         { m.n += uint64(n) }
func (m *tally) Active(int)            {}

// Methods of a Model are the machinery being called, not kernel code: a
// span that models its first line through a constant offset is its own
// business.
func (m *tally) LoadSpan(a exec.Addr, elems, elemSize int) { m.Load(0) }
func (m *tally) StoreSpan(a exec.Addr, elems, elemSize int) {
	m.Store(exec.Addr(0))
}

// throughModel annotates through the hook directly — what a decorator
// does when it forwards — and is held to the kernel rule.
func throughModel(m exec.Model, t *tally, r exec.Region) {
	m.Load(64)           // want `constant address 64`
	t.AtomicRMW(128)     // want `constant address 128`
	m.StoreSpan(0, 4, 8) // want `constant address 0`
	m.Load(r.At(0))
	t.Store(r.At(1))
}
