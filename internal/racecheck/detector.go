package racecheck

import (
	"crono/internal/exec"
)

// vclock is a vector clock indexed by thread id. Clocks are grown on
// demand; a missing entry reads as zero.
type vclock []uint64

func (c vclock) get(t int) uint64 {
	if t < len(c) {
		return c[t]
	}
	return 0
}

func (c *vclock) grow(n int) {
	for len(*c) < n {
		*c = append(*c, 0)
	}
}

// merge folds o into c element-wise (c := c ⊔ o).
func (c *vclock) merge(o vclock) {
	c.grow(len(o))
	for i, v := range o {
		if v > (*c)[i] {
			(*c)[i] = v
		}
	}
}

// assign copies o into c (c := o).
func (c *vclock) assign(o vclock) {
	*c = append((*c)[:0], o...)
}

// shadowWord is the per-address access history: the last write and the
// last read per thread since that write, FastTrack style.
type shadowWord struct {
	write accessRec // tid < 0 when no write recorded yet
	reads []accessRec
}

// defaultMaxRaces caps recorded races so a hot racy loop cannot balloon
// memory; distinct race *sites* are deduplicated before the cap matters.
const defaultMaxRaces = 100

// detector is the FastTrack-style happens-before engine. It is not
// safe for concurrent use: the baton scheduler serializes calls by
// construction.
//
// Clock state (threads, locks, barrier and address synchronization
// clocks, shadow words) is per run and reset by beginRun; detected races
// accumulate across runs on the owning platform.
type detector struct {
	table    *exec.RegionTable
	maxRaces int

	threads int
	clocks  []vclock              // per-thread clock C[t]
	locks   map[exec.Lock]*vclock // per-lock release clock L[l]
	sync    map[exec.Addr]*vclock // per-address atomic release clock A[a]
	shadow  map[exec.Addr]*shadowWord

	races []rawRace
	seen  map[raceKey]bool

	// run is the run in progress. Once it is aborted accesses are not
	// recorded and races are not reported: an abort releases barrier
	// waiters without the barrier's clock join, so accesses made while
	// unwinding are unordered by construction and would otherwise
	// surface as phantom races.
	run *exec.Sched
}

func newDetector(table *exec.RegionTable) *detector {
	return &detector{
		table:    table,
		maxRaces: defaultMaxRaces,
		seen:     make(map[raceKey]bool),
	}
}

// beginRun resets per-run clock state for run, of the given width.
// Thread clocks start at 1 so a zero epoch always means "never".
func (d *detector) beginRun(threads int, run *exec.Sched) {
	d.threads = threads
	d.clocks = make([]vclock, threads)
	for t := range d.clocks {
		c := make(vclock, threads)
		c[t] = 1
		d.clocks[t] = c
	}
	d.locks = make(map[exec.Lock]*vclock)
	d.sync = make(map[exec.Addr]*vclock)
	d.shadow = make(map[exec.Addr]*shadowWord)
	d.run = run
}

func (d *detector) word(a exec.Addr) *shadowWord {
	w := d.shadow[a]
	if w == nil {
		w = &shadowWord{reads: make([]accessRec, d.threads)}
		w.write.tid = -1
		for i := range w.reads {
			w.reads[i].tid = -1
		}
		d.shadow[a] = w
	}
	return w
}

func (d *detector) report(a exec.Addr, prior, current accessRec) {
	key := raceKey{
		addr:         a,
		priorPC:      prior.pc,
		currentPC:    current.pc,
		priorWrite:   prior.write,
		currentWrite: current.write,
	}
	if d.seen[key] || len(d.races) >= d.maxRaces {
		return
	}
	d.seen[key] = true
	d.races = append(d.races, rawRace{addr: a, prior: prior, current: current})
}

// ordered reports whether the recorded access rec happens-before thread
// tid's current point.
func (d *detector) ordered(tid int, rec accessRec) bool {
	return rec.clock <= d.clocks[tid].get(rec.tid)
}

// read checks and records a read of a by tid.
func (d *detector) read(tid int, a exec.Addr, pc uintptr, atomic bool) {
	if d.run.Aborted() {
		return
	}
	w := d.word(a)
	cur := accessRec{tid: tid, clock: d.clocks[tid][tid], pc: pc, atomic: atomic}
	if lw := w.write; lw.tid >= 0 && lw.tid != tid && !d.ordered(tid, lw) && !(atomic && lw.atomic) {
		d.report(a, lw, cur)
	}
	w.reads[tid] = cur
}

// write checks and records a write of a by tid. Reads recorded before
// the write are cleared: later conflicts are checked against the write,
// which dominates them.
func (d *detector) write(tid int, a exec.Addr, pc uintptr, atomic bool) {
	if d.run.Aborted() {
		return
	}
	w := d.word(a)
	cur := accessRec{tid: tid, clock: d.clocks[tid][tid], pc: pc, atomic: atomic, write: true}
	if lw := w.write; lw.tid >= 0 && lw.tid != tid && !d.ordered(tid, lw) && !(atomic && lw.atomic) {
		d.report(a, lw, cur)
	}
	for t := range w.reads {
		lr := w.reads[t]
		if lr.tid >= 0 && t != tid && !d.ordered(tid, lr) && !(atomic && lr.atomic) {
			d.report(a, lr, cur)
		}
		w.reads[t].tid = -1
	}
	w.write = cur
}

// span applies read or write to each element of a span annotation.
func (d *detector) span(tid int, a exec.Addr, elems, elemSize int, pc uintptr, isWrite bool) {
	if d.run.Aborted() {
		return
	}
	for i := 0; i < elems; i++ {
		addr := a + exec.Addr(i)*exec.Addr(elemSize)
		if isWrite {
			d.write(tid, addr, pc, false)
		} else {
			d.read(tid, addr, pc, false)
		}
	}
}

// acquireAddr merges the address synchronization clock into tid's clock:
// the acquire half of an atomic operation on a.
func (d *detector) acquireAddr(tid int, a exec.Addr) {
	if d.run.Aborted() {
		return
	}
	if ac := d.sync[a]; ac != nil {
		d.clocks[tid].merge(*ac)
	}
}

// releaseAddr merges tid's clock into the address synchronization clock
// and ticks tid: the release half of an atomic operation on a.
func (d *detector) releaseAddr(tid int, a exec.Addr) {
	if d.run.Aborted() {
		return
	}
	ac := d.sync[a]
	if ac == nil {
		ac = &vclock{}
		d.sync[a] = ac
	}
	ac.merge(d.clocks[tid])
	d.clocks[tid][tid]++
}

// lockAcquire merges the lock's release clock into tid's clock.
func (d *detector) lockAcquire(tid int, l exec.Lock) {
	if d.run.Aborted() {
		return
	}
	if lc := d.locks[l]; lc != nil {
		d.clocks[tid].merge(*lc)
	}
}

// lockRelease copies tid's clock into the lock's release clock and
// ticks tid.
func (d *detector) lockRelease(tid int, l exec.Lock) {
	if d.run.Aborted() {
		return
	}
	lc := d.locks[l]
	if lc == nil {
		lc = &vclock{}
		d.locks[l] = lc
	}
	lc.assign(d.clocks[tid])
	d.clocks[tid][tid]++
}

// barrierJoin computes the join of the participants' clocks.
func (d *detector) barrierJoin(parties []int) vclock {
	var joined vclock
	for _, t := range parties {
		joined.merge(d.clocks[t])
	}
	return joined
}

// barrierLeave redistributes a completed barrier's joined clock to one
// participant and ticks it. Not called on the abort path: aborted
// barrier generations contribute no happens-before edges.
func (d *detector) barrierLeave(tid int, joined vclock) {
	if d.run.Aborted() {
		return
	}
	d.clocks[tid].assign(joined)
	d.clocks[tid].grow(tid + 1)
	d.clocks[tid][tid]++
}
