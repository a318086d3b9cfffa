package sim

// The miss path's per-line state lives in two dense tables indexed by
// line number. Alloc hands out simulated memory as one contiguous run of
// lines from address 0, so line numbers are dense and an index is a
// shift and a mask; both tables allocate their storage in fixed pages on
// first touch (paged), an untouched entry reads as zero, and the
// directory of page pointers grows with the highest line touched.

// Line dispositions for miss classification (Section IV-D). They must
// fit dispBits; the zero value is a line this core never filled.
const (
	dispCold        = 0 // never resident -> cold miss
	dispEvicted     = 1 // previously evicted for room -> capacity miss
	dispInvalidated = 2 // invalidated/downgraded by another core -> sharing miss
	dispPresent     = 3 // currently (or last known) resident
)

const (
	dispBits      = 2
	dispPerWord   = 64 / dispBits
	dispPageLines = 4096
)

// paged is a directory of fixed-size pages P allocated on first touch;
// a page that was never touched costs its 8-byte directory slot.
type paged[P any] struct {
	pages []*P
}

// peek returns page i, nil if it was never touched.
func (t *paged[P]) peek(i uint64) *P {
	if i >= uint64(len(t.pages)) {
		return nil
	}
	return t.pages[i]
}

// touch returns page i, allocating it zeroed on first use. Pages are
// never moved or freed, so pointers into them stay valid.
func (t *paged[P]) touch(i uint64) *P {
	if i >= uint64(len(t.pages)) {
		t.pages = append(t.pages, make([]*P, i+1-uint64(len(t.pages)))...)
	}
	p := t.pages[i]
	if p == nil {
		p = new(P)
		t.pages[i] = p
	}
	return p
}

// dispPage holds the dispositions of dispPageLines consecutive lines,
// dispBits each: 1 KB per page, a quarter byte per simulated line.
type dispPage [dispPageLines / dispPerWord]uint64

// dispTable is one core's line -> disposition table. The core lock
// guards it.
type dispTable struct {
	paged[dispPage]
}

// get returns the disposition of line, dispCold if it was never set.
func (d *dispTable) get(line uint64) byte {
	pg := d.peek(line / dispPageLines)
	if pg == nil {
		return dispCold
	}
	return byte(pg[line%dispPageLines/dispPerWord] >> (line % dispPerWord * dispBits) & (1<<dispBits - 1))
}

// set records the disposition of line.
func (d *dispTable) set(line uint64, v byte) {
	w := &d.touch(line / dispPageLines)[line%dispPageLines/dispPerWord]
	shift := line % dispPerWord * dispBits
	*w = *w&^((1<<dispBits-1)<<shift) | uint64(v)<<shift
}

// lineStatChunk is the lineStatTable page size: large enough to amortize
// allocation over a graph-sized working set, small enough not to waste
// memory on tiny runs.
const lineStatChunk = 64

// lineStatTable holds the lineStat of every line homed on one tile,
// indexed by the slice-local l2Index(line) the L2 tag array uses, so two
// homes never see the same index for different lines. The home-stripe
// lock guards it.
type lineStatTable struct {
	paged[[lineStatChunk]lineStat]
}

// at returns the stats slot of slice-local index idx, zero-valued until
// first written.
func (t *lineStatTable) at(idx uint64) *lineStat {
	return &t.touch(idx / lineStatChunk)[idx%lineStatChunk]
}
