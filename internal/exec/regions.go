package exec

import (
	"fmt"
	"sort"
	"sync"
)

// RegionTable resolves logical addresses back to the named regions that
// own them, so diagnostics can say "bfs.level[42]" instead of a raw
// address. Checking platforms (internal/racecheck) register every Alloc
// result; anything else that sees raw addresses can share the same table.
//
// The table is safe for concurrent use. Regions never overlap because
// platforms carve them from a monotone address space, but the table does
// not assume registration order matches address order.
type RegionTable struct {
	mu      sync.RWMutex
	regions []Region // sorted by Base
}

// Add registers a region. Zero-sized regions are kept: they still name
// an address even though no element is addressable inside them.
func (t *RegionTable) Add(r Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.regions), func(i int) bool { return t.regions[i].Base >= r.Base })
	t.regions = append(t.regions, Region{})
	copy(t.regions[i+1:], t.regions[i:])
	t.regions[i] = r
}

// Resolve returns the region owning addr and the element index the
// address falls in. The second return is false when no registered region
// covers addr.
func (t *RegionTable) Resolve(addr Addr) (Region, int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.regions), func(i int) bool { return t.regions[i].Base > addr })
	if i == 0 {
		return Region{}, 0, false
	}
	r := t.regions[i-1]
	if r.ElemSize == 0 || addr >= r.Base+r.Bytes() {
		return Region{}, 0, false
	}
	return r, int((addr - r.Base) / uint64(r.ElemSize)), true
}

// Describe formats addr as "name[elem]" when a registered region owns
// it, falling back to the raw hex address.
func (t *RegionTable) Describe(addr Addr) string {
	if r, elem, ok := t.Resolve(addr); ok {
		return fmt.Sprintf("%s[%d]", r.Name, elem)
	}
	return fmt.Sprintf("0x%x", addr)
}

// Len returns the number of registered regions.
func (t *RegionTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}
