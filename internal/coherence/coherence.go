// Package coherence implements the invalidation-based MESI directory
// protocol of Table II with ACKWise-style limited sharer pointers: each
// directory entry tracks up to K sharer cores exactly; beyond K it keeps
// an exact sharer count and falls back to broadcast invalidation, as in
// the ACKWise(4) protocol the paper configures.
package coherence

import "fmt"

// Dir is one directory, a dense table of entries indexed by line number;
// the simulator keeps one per L2 home slice, indexed by the line's
// slice-local index. It is not safe for concurrent use; the simulator
// runs one simulated thread at a time.
type Dir struct {
	k     int
	cores int
	pages [][]entry // page p holds lines from p*entriesPerPage; nil until one is used
	live  int       // entries used since their last DropLine
}

// entriesPerPage is the allocation unit of a Dir: an untouched page
// costs its directory slot, and every entry of a touched page reads as
// an idle line until it is used.
const entriesPerPage = 64

type entry struct {
	owner    int32   // core holding E/M, -1 if line is shared or idle
	dirty    bool    // owner's copy is Modified
	overflow bool    // more sharers than pointers: broadcast on write
	live     bool    // used since the last DropLine (Entries)
	sharers  []int32 // tracked sharer pointers, <= k
	count    int     // exact sharer count (ACKWise keeps this for acks)
}

// New builds a directory with k sharer pointers over the given core
// count.
func New(k, cores int) (*Dir, error) {
	if k < 1 || cores < 1 {
		return nil, fmt.Errorf("coherence: bad directory geometry k=%d cores=%d", k, cores)
	}
	return &Dir{k: k, cores: cores}, nil
}

// Action tells the simulator what coherence traffic a request caused.
type Action struct {
	// FetchFrom is a core whose private copy supplies or flushes the
	// data (the previous E/M owner), or -1.
	FetchFrom int
	// Dirty reports whether FetchFrom held the line Modified (a
	// synchronous write-back is needed).
	Dirty bool
	// Invalidate lists tracked sharer cores that must be invalidated.
	Invalidate []int
	// Broadcast indicates sharer-pointer overflow: invalidations go to
	// every core, with AckCount acknowledgements expected.
	Broadcast bool
	// AckCount is the exact number of invalidation acks on broadcast.
	AckCount int
}

// peek returns line's entry, nil if its page was never used.
func (d *Dir) peek(line uint64) *entry {
	p := line / entriesPerPage
	if p >= uint64(len(d.pages)) || d.pages[p] == nil {
		return nil
	}
	return &d.pages[p][line%entriesPerPage]
}

// get returns line's entry, allocating its page on first use.
func (d *Dir) get(line uint64) *entry {
	p := line / entriesPerPage
	if p >= uint64(len(d.pages)) {
		d.pages = append(d.pages, make([][]entry, p+1-uint64(len(d.pages)))...)
	}
	if d.pages[p] == nil {
		pg := make([]entry, entriesPerPage)
		for i := range pg {
			pg[i].owner = -1
		}
		d.pages[p] = pg
	}
	e := &d.pages[p][line%entriesPerPage]
	if !e.live {
		e.live = true
		d.live++
	}
	return e
}

func (e *entry) hasSharer(core int32) bool {
	for _, s := range e.sharers {
		if s == core {
			return true
		}
	}
	return false
}

func (e *entry) dropSharer(core int32) {
	for i, s := range e.sharers {
		if s == core {
			e.sharers[i] = e.sharers[len(e.sharers)-1]
			e.sharers = e.sharers[:len(e.sharers)-1]
			return
		}
	}
}

// Read records a read request for line by core and returns the required
// coherence actions. On return the directory reflects the new stable
// state (requester a sharer, or exclusive owner if the line was idle).
//
// Contract: callers issue Read only on a private-cache miss, so the
// requester is never among the line's current holders; a holder would hit
// in its L1 and never reach the directory.
func (d *Dir) Read(line uint64, core int) Action {
	e := d.get(line)
	act := Action{FetchFrom: -1}
	c := int32(core)
	if e.owner == c {
		return act // already exclusive here
	}
	if e.owner >= 0 {
		// Downgrade the previous owner to a sharer.
		act.FetchFrom = int(e.owner)
		act.Dirty = e.dirty
		prev := e.owner
		e.owner = -1
		e.dirty = false
		d.addSharer(e, prev)
		d.addSharer(e, c)
		return act
	}
	if e.count == 0 {
		// Idle line: grant exclusive.
		e.owner = c
		e.dirty = false
		return act
	}
	d.addSharer(e, c)
	return act
}

// Write records a write (or upgrade) request for line by core and
// returns the coherence actions. On return core is the Modified owner.
func (d *Dir) Write(line uint64, core int) Action {
	e := d.get(line)
	act := Action{FetchFrom: -1}
	c := int32(core)
	if e.owner == c {
		e.dirty = true
		return act
	}
	if e.owner >= 0 {
		act.FetchFrom = int(e.owner)
		act.Dirty = e.dirty
	}
	if e.count > 0 {
		if e.overflow {
			act.Broadcast = true
			act.AckCount = e.count
			if e.hasSharer(c) || d.memberOfCount(e, c) {
				// The requester's own copy does not need a network ack.
				act.AckCount--
			}
		} else {
			for _, s := range e.sharers {
				if s != c {
					act.Invalidate = append(act.Invalidate, int(s))
				}
			}
		}
	}
	e.owner = c
	e.dirty = true
	e.sharers = e.sharers[:0]
	e.count = 0
	e.overflow = false
	return act
}

// memberOfCount conservatively reports whether core is among the counted
// (but untracked) sharers; with overflow the directory cannot know, so it
// assumes membership only when tracked.
func (d *Dir) memberOfCount(e *entry, core int32) bool {
	return e.hasSharer(core)
}

func (d *Dir) addSharer(e *entry, core int32) {
	if e.hasSharer(core) {
		return
	}
	e.count++
	if len(e.sharers) < d.k {
		e.sharers = append(e.sharers, core)
		return
	}
	e.overflow = true
}

// RemoteRead records a read served at the home tile without caching the
// data at the requester (locality-aware mode). A dirty private owner must
// flush; it keeps a Shared copy.
func (d *Dir) RemoteRead(line uint64) Action {
	e := d.get(line)
	act := Action{FetchFrom: -1}
	if e.owner >= 0 && e.dirty {
		act.FetchFrom = int(e.owner)
		act.Dirty = true
		prev := e.owner
		e.owner = -1
		e.dirty = false
		d.addSharer(e, prev)
	}
	return act
}

// RemoteWrite records a write performed at the home tile without caching
// the data at the requester: every private copy is invalidated and the
// line returns to idle (dirty in the L2).
func (d *Dir) RemoteWrite(line uint64) Action {
	e := d.get(line)
	act := Action{FetchFrom: -1}
	if e.owner >= 0 {
		act.FetchFrom = int(e.owner)
		act.Dirty = e.dirty
	}
	if e.count > 0 {
		if e.overflow {
			act.Broadcast = true
			act.AckCount = e.count
		} else {
			for _, s := range e.sharers {
				act.Invalidate = append(act.Invalidate, int(s))
			}
		}
	}
	e.owner = -1
	e.dirty = false
	e.sharers = e.sharers[:0]
	e.count = 0
	e.overflow = false
	return act
}

// Evict records that core silently dropped its private copy (L1
// replacement). Tracked pointers are removed; with overflow the count is
// decremented but membership stays approximate, exactly as a real limited
// directory behaves.
func (d *Dir) Evict(line uint64, core int) {
	e := d.peek(line)
	if e == nil {
		return
	}
	c := int32(core)
	if e.owner == c {
		e.owner = -1
		e.dirty = false
		return
	}
	if e.hasSharer(c) {
		e.dropSharer(c)
		if e.count > 0 {
			e.count--
		}
	} else if e.overflow && e.count > 0 {
		e.count--
	}
	if e.count == 0 {
		e.overflow = false
		e.sharers = e.sharers[:0]
	}
}

// DropLine removes the directory entry on an (inclusive) L2 eviction and
// returns the tracked cores that must be back-invalidated, plus whether a
// broadcast is needed because of pointer overflow.
func (d *Dir) DropLine(line uint64) (cores []int, broadcast bool) {
	e := d.peek(line)
	if e == nil || !e.live {
		return nil, false
	}
	if e.owner >= 0 {
		cores = append(cores, int(e.owner))
	}
	for _, s := range e.sharers {
		cores = append(cores, int(s))
	}
	broadcast = e.overflow
	*e = entry{owner: -1, sharers: e.sharers[:0]}
	d.live--
	return cores, broadcast
}

// Sharers returns the exact sharer count of line (0 if idle), counting an
// exclusive owner as one sharer.
func (d *Dir) Sharers(line uint64) int {
	e := d.peek(line)
	if e == nil {
		return 0
	}
	if e.owner >= 0 {
		return 1
	}
	return e.count
}

// Owner returns the exclusive owner core of line, or -1.
func (d *Dir) Owner(line uint64) int {
	e := d.peek(line)
	if e == nil || e.owner < 0 {
		return -1
	}
	return int(e.owner)
}

// Entries returns the number of live directory entries.
func (d *Dir) Entries() int { return d.live }
