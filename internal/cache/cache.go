// Package cache models set-associative caches with true-LRU replacement.
// It provides the timing-only tag arrays behind the private L1 and shared
// L2 slices of Table II; no data is stored.
package cache

import "fmt"

// State is a MESI line state as kept by a private cache.
type State byte

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

type way struct {
	line  uint64 // line address (byte address >> log2(lineBytes))
	state State
	lru   uint64 // last-touch stamp
}

// setsPerPage is the allocation unit of a tag array: its ways are
// allocated on first touch, this many sets at a time, so a cache that is
// built and barely used costs its page directory, not its capacity.
const setsPerPage = 16

// Cache is a set-associative tag array indexed by line address. It is not
// safe for concurrent use; the simulator runs one simulated thread at a
// time.
type Cache struct {
	sets    int
	ways    int
	setMask uint64
	pages   [][]way // page p holds the sets from p*setsPerPage; nil until one is touched
	stamp   uint64
	size    int
}

// New builds a cache of sizeBytes capacity with the given associativity
// and line size. sizeBytes must divide evenly into sets.
func New(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: bad geometry %d/%d/%d", sizeBytes, ways, lineBytes)
	}
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets == 0 || sets*ways*lineBytes != sizeBytes {
		return nil, fmt.Errorf("cache: %dB/%d-way/%dB lines does not tile", sizeBytes, ways, lineBytes)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	pages := (sets + setsPerPage - 1) / setsPerPage
	return &Cache{sets: sets, ways: ways, setMask: uint64(sets - 1), pages: make([][]way, pages), size: sizeBytes}, nil
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Size returns the capacity in bytes.
func (c *Cache) Size() int { return c.size }

// set returns the ways of line's set, nil if its page was never touched:
// an untouched set holds no valid line.
func (c *Cache) set(line uint64) []way {
	s := line & c.setMask
	p := c.pages[s/setsPerPage]
	if p == nil {
		return nil
	}
	off := int(s%setsPerPage) * c.ways
	return p[off : off+c.ways]
}

// touch returns the ways of line's set, allocating its page (all ways
// Invalid) on first use.
func (c *Cache) touch(line uint64) []way {
	s := line & c.setMask
	p := &c.pages[s/setsPerPage]
	if *p == nil {
		*p = make([]way, min(c.sets, setsPerPage)*c.ways)
	}
	off := int(s%setsPerPage) * c.ways
	return (*p)[off : off+c.ways]
}

// Lookup returns the state of line, Invalid if absent, and refreshes LRU
// on a hit.
func (c *Cache) Lookup(line uint64) State {
	c.stamp++
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.state != Invalid && w.line == line {
			w.lru = c.stamp
			return w.state
		}
	}
	return Invalid
}

// Peek returns the state of line without touching LRU.
func (c *Cache) Peek(line uint64) State {
	for _, w := range c.set(line) {
		if w.state != Invalid && w.line == line {
			return w.state
		}
	}
	return Invalid
}

// SetState updates the state of a present line; it is a no-op if the line
// is absent.
func (c *Cache) SetState(line uint64, st State) {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.state != Invalid && w.line == line {
			w.state = st
			return
		}
	}
}

// Victim is a line displaced by an Insert.
type Victim struct {
	Line  uint64
	State State
}

// Insert places line with the given state, evicting the LRU way if the
// set is full. It returns the victim, if any. Inserting a line that is
// already present just updates its state and LRU.
func (c *Cache) Insert(line uint64, st State) (Victim, bool) {
	c.stamp++
	set := c.touch(line)
	// Already present: refresh.
	for i := range set {
		if set[i].state != Invalid && set[i].line == line {
			set[i].state = st
			set[i].lru = c.stamp
			return Victim{}, false
		}
	}
	// Free way.
	for i := range set {
		if set[i].state == Invalid {
			set[i] = way{line: line, state: st, lru: c.stamp}
			return Victim{}, false
		}
	}
	// Evict true-LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	out := Victim{Line: set[victim].line, State: set[victim].state}
	set[victim] = way{line: line, state: st, lru: c.stamp}
	return out, true
}

// Invalidate removes line and returns its previous state.
func (c *Cache) Invalidate(line uint64) State {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.state != Invalid && w.line == line {
			st := w.state
			w.state = Invalid
			return st
		}
	}
	return Invalid
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, p := range c.pages {
		for _, w := range p {
			if w.state != Invalid {
				n++
			}
		}
	}
	return n
}
