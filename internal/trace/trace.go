// Package trace implements trace-driven simulation: a Recorder platform
// captures a kernel's annotation stream (loads, stores, compute bursts,
// lock and barrier operations) into a compact binary format, and Replay
// feeds a recorded trace back through any exec.Platform — typically the
// multicore simulator — without re-running the algorithm.
//
// This is the classic two-phase simulator workflow (Graphite supports the
// same split): record once at native speed, then replay against many
// architectural configurations.
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"crono/internal/exec"
	"crono/internal/native"
)

// Op codes of the trace stream.
const (
	opLoad byte = iota + 1
	opStore
	opLoadSpan
	opStoreSpan
	opCompute
	opLock
	opUnlock
	opBarrier
	opActive
	opAtomicLoad
	opAtomicStore
	opAtomicRMW

	// opMax is the highest valid op code; Read rejects anything above it.
	opMax = opAtomicRMW
)

// magic identifies a trace file.
const magic = "CRTRACE1"

// record is one decoded trace operation.
type record struct {
	op   byte
	a, b uint64 // addr/amount/id, span elems<<32|elemSize
}

// Trace is a recorded run: per-thread op streams plus the synchronization
// resource counts needed to rebuild locks and barriers.
type Trace struct {
	// Threads holds one op stream per recorded thread.
	Threads [][]record
	// Locks is the number of distinct locks used.
	Locks int
	// Barriers holds the party count of each barrier.
	Barriers []int
	// Regions reproduces the recorded address-space layout.
	Regions []exec.Region
}

// Recorder is an exec.Platform that runs kernels natively while capturing
// their annotation streams. Create with NewRecorder, run any kernel
// against it, then call Trace or Trace().Write. Locks and barriers must be
// created before Run (as every suite kernel does), so the id maps are
// read-only while threads record.
type Recorder struct {
	inner    *native.Platform
	mu       sync.Mutex
	lockIDs  map[exec.Lock]uint64
	barIDs   map[exec.Barrier]uint64
	barrierN []int
	regions  []exec.Region
	streams  [][]record
}

// NewRecorder returns a recording platform.
func NewRecorder() *Recorder {
	return &Recorder{
		inner:   native.New(),
		lockIDs: make(map[exec.Lock]uint64),
		barIDs:  make(map[exec.Barrier]uint64),
	}
}

// Name implements exec.Platform.
func (r *Recorder) Name() string { return "trace-recorder" }

// Alloc implements exec.Platform.
func (r *Recorder) Alloc(name string, elems, elemSize int) exec.Region {
	reg := r.inner.Alloc(name, elems, elemSize)
	r.mu.Lock()
	r.regions = append(r.regions, reg)
	r.mu.Unlock()
	return reg
}

type recLock struct{ inner exec.Lock }
type recBarrier struct{ inner exec.Barrier }

// NewLock implements exec.Platform.
func (r *Recorder) NewLock() exec.Lock {
	l := &recLock{inner: r.inner.NewLock()}
	r.mu.Lock()
	r.lockIDs[l] = uint64(len(r.lockIDs))
	r.mu.Unlock()
	return l
}

// NewBarrier implements exec.Platform.
func (r *Recorder) NewBarrier(parties int) exec.Barrier {
	b := &recBarrier{inner: r.inner.NewBarrier(parties)}
	r.mu.Lock()
	r.barIDs[b] = uint64(len(r.barIDs))
	r.barrierN = append(r.barrierN, parties)
	r.mu.Unlock()
	return b
}

// recCtx decorates the inner native thread: it is the exec.Model and
// exec.Sync of the Thread the kernel sees, recording each annotation and
// then forwarding it.
type recCtx struct {
	inner  exec.Ctx
	r      *Recorder
	stream *[]record
}

var (
	_ exec.Model = (*recCtx)(nil)
	_ exec.Sync  = (*recCtx)(nil)
)

func (c *recCtx) emit(op byte, a, b uint64) {
	*c.stream = append(*c.stream, record{op: op, a: a, b: b})
}

func (c *recCtx) Load(a exec.Addr) {
	c.emit(opLoad, a, 0)
	c.inner.Load(a)
}

func (c *recCtx) Store(a exec.Addr) {
	c.emit(opStore, a, 0)
	c.inner.Store(a)
}

func (c *recCtx) AtomicLoad(a exec.Addr) {
	c.emit(opAtomicLoad, a, 0)
	c.inner.AtomicLoad(a)
}

func (c *recCtx) AtomicStore(a exec.Addr) {
	c.emit(opAtomicStore, a, 0)
	c.inner.AtomicStore(a)
}

func (c *recCtx) AtomicRMW(a exec.Addr) {
	c.emit(opAtomicRMW, a, 0)
	c.inner.AtomicRMW(a)
}

func (c *recCtx) LoadSpan(a exec.Addr, elems, elemSize int) {
	c.emit(opLoadSpan, a, uint64(elems)<<32|uint64(uint32(elemSize)))
	c.inner.LoadSpan(a, elems, elemSize)
}

func (c *recCtx) StoreSpan(a exec.Addr, elems, elemSize int) {
	c.emit(opStoreSpan, a, uint64(elems)<<32|uint64(uint32(elemSize)))
	c.inner.StoreSpan(a, elems, elemSize)
}

func (c *recCtx) Compute(n int) {
	if n > 0 {
		c.emit(opCompute, uint64(n), 0)
	}
	c.inner.Compute(n)
}

func (c *recCtx) Lock(l exec.Lock) {
	rl := l.(*recLock)
	c.emit(opLock, c.r.lockIDs[l], 0)
	c.inner.Lock(rl.inner)
}

func (c *recCtx) Unlock(l exec.Lock) {
	rl := l.(*recLock)
	c.emit(opUnlock, c.r.lockIDs[l], 0)
	c.inner.Unlock(rl.inner)
}

func (c *recCtx) Barrier(b exec.Barrier) {
	rb := b.(*recBarrier)
	c.emit(opBarrier, c.r.barIDs[b], 0)
	c.inner.Barrier(rb.inner)
}

func (c *recCtx) Active(delta int) {
	c.emit(opActive, uint64(int64(delta)), 0)
	c.inner.Active(delta)
}

// Checkpoint is control flow, not an annotation event: forwarded, not
// recorded.
func (c *recCtx) Checkpoint() error { return c.inner.Checkpoint() }

// Run implements exec.Platform: the kernel executes natively while each
// thread's annotations are captured.
func (r *Recorder) Run(threads int, body func(exec.Ctx)) *exec.Report {
	rep, _ := r.RunCtx(context.Background(), threads, body)
	return rep
}

// RunCtx implements exec.Platform. A canceled recording leaves the
// partial streams behind; do not Trace() an aborted run.
func (r *Recorder) RunCtx(ctx context.Context, threads int, body func(exec.Ctx)) (*exec.Report, error) {
	if threads < 1 {
		threads = 1
	}
	r.streams = make([][]record, threads)
	return r.inner.RunCtx(ctx, threads, func(inner exec.Ctx) {
		c := &recCtx{inner: inner, r: r, stream: &r.streams[inner.TID()]}
		body(exec.NewThread(inner.TID(), threads, c, c))
	})
}

// Trace returns the captured trace. Call after Run.
func (r *Recorder) Trace() *Trace {
	return &Trace{
		Threads:  r.streams,
		Locks:    len(r.lockIDs),
		Barriers: append([]int(nil), r.barrierN...),
		Regions:  append([]exec.Region(nil), r.regions...),
	}
}

// Replay feeds the trace through pl and returns the resulting report.
// Lock mutual exclusion and barrier semantics are honored on the target
// platform, so contention is re-simulated rather than copied.
func Replay(pl exec.Platform, tr *Trace) (*exec.Report, error) {
	if len(tr.Threads) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	for _, reg := range tr.Regions {
		pl.Alloc(reg.Name, int(reg.Elems), int(reg.ElemSize))
	}
	locks := exec.NewLocks(pl, tr.Locks)
	bars := make([]exec.Barrier, len(tr.Barriers))
	for i, parties := range tr.Barriers {
		bars[i] = pl.NewBarrier(parties)
	}
	rep := pl.Run(len(tr.Threads), func(ctx exec.Ctx) {
		for _, rec := range tr.Threads[ctx.TID()] {
			switch rec.op {
			case opLoad:
				ctx.Load(rec.a)
			case opStore:
				// Replay forwards recorded annotations verbatim; any
				// ordering was the traced kernel's responsibility.
				ctx.Store(rec.a) //crono:vet-ignore unguardedstore
			case opLoadSpan:
				ctx.LoadSpan(rec.a, int(rec.b>>32), int(uint32(rec.b)))
			case opStoreSpan:
				ctx.StoreSpan(rec.a, int(rec.b>>32), int(uint32(rec.b))) //crono:vet-ignore unguardedstore
			case opCompute:
				ctx.Compute(int(rec.a))
			case opLock:
				ctx.Lock(locks[rec.a])
			case opUnlock:
				ctx.Unlock(locks[rec.a])
			case opBarrier:
				ctx.Barrier(bars[rec.a])
			case opActive:
				ctx.Active(int(int64(rec.a)))
			case opAtomicLoad:
				ctx.AtomicLoad(rec.a)
			case opAtomicStore:
				ctx.AtomicStore(rec.a)
			case opAtomicRMW:
				ctx.AtomicRMW(rec.a)
			}
		}
	})
	return rep, nil
}

// Write serializes the trace in the compact binary format.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := writeU64(uint64(len(tr.Threads))); err != nil {
		return err
	}
	if err := writeU64(uint64(tr.Locks)); err != nil {
		return err
	}
	if err := writeU64(uint64(len(tr.Barriers))); err != nil {
		return err
	}
	for _, p := range tr.Barriers {
		if err := writeU64(uint64(p)); err != nil {
			return err
		}
	}
	if err := writeU64(uint64(len(tr.Regions))); err != nil {
		return err
	}
	for _, reg := range tr.Regions {
		if err := writeU64(uint64(len(reg.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(reg.Name); err != nil {
			return err
		}
		for _, v := range []uint64{reg.Base, reg.ElemSize, reg.Elems} {
			if err := writeU64(v); err != nil {
				return err
			}
		}
	}
	for _, stream := range tr.Threads {
		if err := writeU64(uint64(len(stream))); err != nil {
			return err
		}
		for _, rec := range stream {
			if err := bw.WriteByte(rec.op); err != nil {
				return err
			}
			if err := writeU64(rec.a); err != nil {
				return err
			}
			if err := writeU64(rec.b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %v", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	nThreads, err := readU64()
	if err != nil {
		return nil, err
	}
	const limit = 1 << 20
	if nThreads == 0 || nThreads > limit {
		return nil, fmt.Errorf("trace: implausible thread count %d", nThreads)
	}
	locks, err := readU64()
	if err != nil {
		return nil, err
	}
	nBars, err := readU64()
	if err != nil {
		return nil, err
	}
	if locks > 1<<32 || nBars > limit {
		return nil, fmt.Errorf("trace: implausible resource counts")
	}
	tr := &Trace{Locks: int(locks)}
	for i := uint64(0); i < nBars; i++ {
		p, err := readU64()
		if err != nil {
			return nil, err
		}
		tr.Barriers = append(tr.Barriers, int(p))
	}
	nRegs, err := readU64()
	if err != nil {
		return nil, err
	}
	if nRegs > limit {
		return nil, fmt.Errorf("trace: implausible region count %d", nRegs)
	}
	for i := uint64(0); i < nRegs; i++ {
		nameLen, err := readU64()
		if err != nil {
			return nil, err
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("trace: implausible region name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		var vals [3]uint64
		for j := range vals {
			if vals[j], err = readU64(); err != nil {
				return nil, err
			}
		}
		tr.Regions = append(tr.Regions, exec.Region{
			Name: string(name), Base: vals[0], ElemSize: vals[1], Elems: vals[2],
		})
	}
	for t := uint64(0); t < nThreads; t++ {
		n, err := readU64()
		if err != nil {
			return nil, err
		}
		stream := make([]record, 0, minU64(n, 1<<20))
		for i := uint64(0); i < n; i++ {
			op, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if op < opLoad || op > opMax {
				return nil, fmt.Errorf("trace: bad op %d", op)
			}
			a, err := readU64()
			if err != nil {
				return nil, err
			}
			b, err := readU64()
			if err != nil {
				return nil, err
			}
			stream = append(stream, record{op: op, a: a, b: b})
		}
		tr.Threads = append(tr.Threads, stream)
	}
	return tr, nil
}

// Ops returns the total operation count across threads.
func (tr *Trace) Ops() int {
	n := 0
	for _, s := range tr.Threads {
		n += len(s)
	}
	return n
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
