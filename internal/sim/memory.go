package sim

import (
	"crono/internal/cache"
	"crono/internal/coherence"
	"crono/internal/exec"
)

// The memory path: every annotated reference of a simulated thread walks
// the per-core L1, the line's home tile (L2 slice, directory, per-line
// serialization), the mesh and, on an L2 miss, a memory controller.

// Compute models n single-cycle pipeline instructions.
func (c *ctx) Compute(n int) {
	if n <= 0 {
		return
	}
	c.tick()
	c.now += uint64(n)
	c.brk[exec.CompCompute] += uint64(n)
}

func (c *ctx) Load(a exec.Addr)  { c.access(a, false) }
func (c *ctx) Store(a exec.Addr) { c.access(a, true) }

// Atomic annotations run the same timing model as their plain
// counterparts: the paper's machine serializes atomics at the L2 home
// tile exactly like ordinary coherence transactions, so an atomic load
// costs a load and an atomic store or RMW costs a store. The
// distinction feeds synchronization-aware tooling only.
func (c *ctx) AtomicLoad(a exec.Addr)  { c.access(a, false) }
func (c *ctx) AtomicStore(a exec.Addr) { c.access(a, true) }
func (c *ctx) AtomicRMW(a exec.Addr)   { c.access(a, true) }

// LoadSpan implements exec.Model: one full cache transaction per touched
// line, plus single-cycle L1 hits for the remaining elements — exactly
// what per-element Load calls produce for a sequential scan, but without
// running the full model per element.
func (c *ctx) LoadSpan(a exec.Addr, elems, elemSize int) { c.span(a, elems, elemSize, false) }

// StoreSpan implements exec.Model, as LoadSpan for writes.
func (c *ctx) StoreSpan(a exec.Addr, elems, elemSize int) { c.span(a, elems, elemSize, true) }

func (c *ctx) span(a exec.Addr, elems, elemSize int, write bool) {
	if elems <= 0 || elemSize <= 0 {
		return
	}
	m := c.m
	lineBytes := uint64(m.cfg.LineBytes)
	end := a + uint64(elems)*uint64(elemSize)
	for cur := a; cur < end; {
		// Elements whose first byte falls in cur's line.
		lineEnd := (cur>>m.lineBits + 1) * lineBytes
		n := int((lineEnd - cur + uint64(elemSize) - 1) / uint64(elemSize))
		if rem := int((end - cur + uint64(elemSize) - 1) / uint64(elemSize)); n > rem {
			n = rem
		}
		c.access(cur, write) // full model once per line
		if n > 1 {
			extra := uint64(n - 1)
			c.stats.L1DAccesses += extra
			c.now += extra * m.cfg.L1LatencyCycles
			c.brk[exec.CompCompute] += extra * m.cfg.L1LatencyCycles
		}
		cur += uint64(n) * uint64(elemSize)
	}
}

// access runs one data reference through the full memory-system model.
// The window check comes first, so a reference never passes the baton
// half done.
func (c *ctx) access(addr exec.Addr, write bool) {
	m := c.m
	c.tick()
	// Base pipeline cycle (includes the 1-cycle L1 hit, Table II).
	c.now += m.cfg.L1LatencyCycles
	c.brk[exec.CompCompute] += m.cfg.L1LatencyCycles
	c.stats.L1DAccesses++

	line := addr >> m.lineBits
	cs := &m.cores[c.core]
	st := cs.l1.Lookup(line)
	if st != cache.Invalid && (!write || st == cache.Modified) {
		return // L1 hit
	}
	hs := m.homeShardOf(line)
	idx := m.l2Index(line) // the line's slot in its home's L2 and directory
	if write && st == cache.Exclusive {
		// Silent E->M upgrade: an Exclusive L1 line is owned at the
		// directory, which only records that the copy is now dirty.
		cs.l1.SetState(line, cache.Modified)
		hs.dir.Write(idx, c.core)
		return
	}
	if m.cfg.LocalityAware && st == cache.Invalid {
		if v := cs.reuse[line]; int(v) < m.cfg.LocalityThreshold {
			if v < reuseSaturation {
				cs.reuse[line] = v + 1
			}
			c.remoteAccess(line, write)
			return
		}
	}
	if st == cache.Invalid {
		// True L1 miss: classify per Section IV-D.
		cl := exec.MissCold
		switch cs.disp.get(line) {
		case dispEvicted:
			cl = exec.MissCapacity
		case dispInvalidated:
			cl = exec.MissSharing
		}
		c.stats.L1DMisses[cl]++
	}
	// st == Shared && write is an upgrade: not a miss, but it travels
	// to the home tile for invalidations like one.

	start := c.now
	home := m.home(line)

	// Request to the home tile.
	t, fh := m.mesh.Traverse(c.core, home, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)

	// Home serialization: requests to the same line queue up
	// (L2Home-Waiting).
	ls := hs.lines.at(idx)
	wait := ls.lineWait(t)
	busy := t + wait
	txnStart := busy

	// First L2 access + directory lookup.
	t = busy + m.cfg.L2LatencyCycles
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.stats.L2Accesses++

	// Off-chip fill on L2 miss.
	var offchip uint64
	if hs.l2.Lookup(idx) == cache.Invalid {
		c.stats.L2Misses++
		t2 := c.fillFromDRAM(hs, line, home, t)
		offchip = t2 - t
		t = t2
	}

	// Coherence actions (L2Home-Sharers).
	var act coherence.Action
	if write {
		act = hs.dir.Write(idx, c.core)
	} else {
		act = hs.dir.Read(idx, c.core)
	}
	sharers := c.applyCoherence(hs, line, home, act, write)
	t += sharers

	// The home transaction completes; record its occupancy for later
	// requests to the same line.
	ls.busy += t - txnStart
	ls.count++

	// Data reply to the requester.
	dataBits := m.cfg.CtrlPacketBits + 8*m.cfg.LineBytes
	t4, fh := m.mesh.Traverse(home, c.core, dataBits, t)
	c.energy.FlitHops += uint64(fh)

	// Fill the private L1, then retire its victim at the victim's own
	// home and run the next-line prefetch.
	grant := cache.Shared
	if write {
		grant = cache.Modified
	} else if hs.dir.Owner(idx) == c.core {
		grant = cache.Exclusive
	}
	v, evicted := cs.l1.Insert(line, grant)
	cs.disp.set(line, dispPresent)
	if evicted {
		c.dropL1Victim(cs, v)
	}
	if m.cfg.NextLinePrefetch && !write {
		c.prefetchNextLine(cs, line)
	}

	// Attribute the stall (lax virtual time).
	reqReply := (t4 - t) + (busy - start - wait) + m.cfg.L2LatencyCycles
	l1l2 := reqReply
	if m.coreIsOOO(c.core) {
		hideL := uint64(float64(l1l2) * m.cfg.OOOHideFraction)
		hideO := uint64(float64(offchip) * m.cfg.OOOHideFraction)
		l1l2 -= hideL
		offchip -= hideO
	}
	c.brk[exec.CompL1ToL2] += l1l2
	c.brk[exec.CompWaiting] += wait
	c.brk[exec.CompSharers] += sharers
	c.brk[exec.CompOffChip] += offchip
	c.now = start + l1l2 + wait + sharers + offchip
}

// fillFromDRAM fetches line into home's L2 slice starting at cycle t and
// returns the completion cycle.
func (c *ctx) fillFromDRAM(hs *homeShard, line uint64, home int, t uint64) uint64 {
	m := c.m
	mc := m.controller(line)
	ta, fh := m.mesh.Traverse(home, m.mcTile[mc], m.cfg.CtrlPacketBits, t)
	c.energy.FlitHops += uint64(fh)
	done, _ := m.mcs[mc].Access(ta, m.cfg.LineBytes)
	c.energy.DRAMAccesses++
	tb, fh := m.mesh.Traverse(m.mcTile[mc], home, m.cfg.CtrlPacketBits+8*m.cfg.LineBytes, done)
	c.energy.FlitHops += uint64(fh)
	if v, ok := hs.l2.Insert(m.l2Index(line), cache.Shared); ok {
		c.dropL2Victim(hs, v, home)
	}
	return tb
}

// dropL2Victim back-invalidates private copies of an inclusively evicted
// L2 line and writes dirty data off chip. The victim is homed on this
// same tile (every line in a slice is), so its directory entry lives in
// hs.dir, at the same slice-local index as its tag.
func (c *ctx) dropL2Victim(hs *homeShard, v cache.Victim, home int) {
	m := c.m
	line := m.l2Unindex(v.Line, home)
	cores, broadcast := hs.dir.DropLine(v.Line)
	dirty := v.State == cache.Modified
	inval := func(core int) {
		cs := &m.cores[core]
		if st := cs.l1.Invalidate(line); st != cache.Invalid {
			cs.disp.set(line, dispEvicted)
			if st == cache.Modified {
				dirty = true
			}
		}
	}
	if broadcast {
		for core := 0; core < m.cfg.Cores; core++ {
			inval(core)
		}
	} else {
		for _, core := range cores {
			inval(core)
		}
	}
	if dirty {
		// Off-critical-path write-back: consumes controller bandwidth
		// and energy but stalls nobody.
		mc := m.controller(line)
		m.mcs[mc].Access(c.now, m.cfg.LineBytes)
		m.extra.DRAMAccesses++
		m.extra.FlitHops += uint64(m.mesh.Hops(home, m.mcTile[mc]) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
	}
}

// dropL1Victim retires an L1 replacement victim at its own home tile:
// the directory drops this core's pointer and a Modified victim models a
// write-back into the home L2 slice (bandwidth and energy only, off the
// critical path).
func (c *ctx) dropL1Victim(cs *coreShard, v cache.Victim) {
	m := c.m
	line := v.Line
	home := m.home(line)
	hs := &m.homes[home]
	idx := m.l2Index(line)
	hs.dir.Evict(idx, c.core)
	cs.disp.set(line, dispEvicted)
	if v.State == cache.Modified {
		c.energy.FlitHops += uint64(m.mesh.Hops(c.core, home) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
		c.energy.L2Accesses++
		hs.l2.SetState(idx, cache.Modified) // L2 copy now dirty
	}
}

// applyCoherence performs invalidations/downgrades demanded by act and
// returns the L2Home-Sharers latency: the round trip to the farthest
// involved sharer (invalidations proceed in parallel).
func (c *ctx) applyCoherence(hs *homeShard, line uint64, home int, act coherence.Action, write bool) uint64 {
	m := c.m
	var worst uint64
	touch := func(core int) {
		rt := m.mesh.RoundTrip(home, core) + m.cfg.L1LatencyCycles
		if rt > worst {
			worst = rt
		}
		flits := m.mesh.Flits(m.cfg.CtrlPacketBits)
		c.energy.FlitHops += uint64(2 * m.mesh.Hops(home, core) * flits)
	}
	if act.FetchFrom >= 0 && act.FetchFrom != c.core {
		touch(act.FetchFrom)
		fs := &m.cores[act.FetchFrom]
		if write {
			if st := fs.l1.Invalidate(line); st != cache.Invalid {
				fs.disp.set(line, dispInvalidated)
			}
		} else {
			fs.l1.SetState(line, cache.Shared)
		}
		if act.Dirty {
			hs.l2.SetState(m.l2Index(line), cache.Modified)
			c.energy.L2Accesses++
		}
	}
	for _, s := range act.Invalidate {
		if s == c.core {
			continue
		}
		touch(s)
		ss := &m.cores[s]
		if st := ss.l1.Invalidate(line); st != cache.Invalid {
			ss.disp.set(line, dispInvalidated)
		}
	}
	if act.Broadcast {
		// Overflowed ACKWise pointers: invalidate every private copy;
		// latency is a round trip across the mesh diameter.
		rt := 2*uint64(m.mesh.Diameter())*m.cfg.HopCycles + m.cfg.L1LatencyCycles
		if rt > worst {
			worst = rt
		}
		flits := uint64(m.mesh.Flits(m.cfg.CtrlPacketBits))
		for core := 0; core < m.cfg.Cores; core++ {
			if core == c.core {
				continue
			}
			bs := &m.cores[core]
			if st := bs.l1.Invalidate(line); st != cache.Invalid {
				bs.disp.set(line, dispInvalidated)
				c.energy.FlitHops += uint64(2*m.mesh.Hops(home, core)) * flits
			}
		}
	}
	return worst
}

// prefetchNextLine models a next-line L1 prefetcher: after a demand read
// miss, the following line is brought into the L1 off the critical path
// when it is already on chip and not exclusively owned elsewhere. Energy
// is charged; no time is. line+1 is homed on a different tile than line,
// so the prefetch is its own home transaction.
func (c *ctx) prefetchNextLine(cs *coreShard, line uint64) {
	m := c.m
	nl := line + 1
	if cs.l1.Peek(nl) != cache.Invalid {
		return
	}
	home := m.home(nl)
	hs := &m.homes[home]
	idx := m.l2Index(nl)
	if hs.l2.Peek(idx) == cache.Invalid {
		return // never prefetch off chip
	}
	if hs.dir.Owner(idx) >= 0 {
		return // never disturb an exclusive owner
	}
	hs.dir.Read(idx, c.core)
	grant := cache.Shared
	if hs.dir.Owner(idx) == c.core {
		grant = cache.Exclusive
	}
	v, evicted := cs.l1.Insert(nl, grant)
	cs.disp.set(nl, dispPresent)
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.energy.FlitHops += uint64(m.mesh.Hops(c.core, home) * m.mesh.Flits(m.cfg.CtrlPacketBits+8*m.cfg.LineBytes))
	if evicted {
		c.dropL1Victim(cs, v)
	}
}

// remoteAccess serves a low-locality reference at the home tile without
// allocating it in the private L1 (locality-aware coherence ablation,
// Section VII-A).
func (c *ctx) remoteAccess(line uint64, write bool) {
	m := c.m
	start := c.now
	home := m.home(line)
	hs := &m.homes[home]
	t, fh := m.mesh.Traverse(c.core, home, m.cfg.CtrlPacketBits, start)
	c.energy.FlitHops += uint64(fh)
	idx := m.l2Index(line)
	ls := hs.lines.at(idx)
	wait := ls.lineWait(t)
	busy := t + wait
	txnStart := busy
	t = busy + m.cfg.L2LatencyCycles
	c.energy.L2Accesses++
	c.energy.DirAccesses++
	c.stats.L2Accesses++
	var offchip uint64
	if hs.l2.Lookup(idx) == cache.Invalid {
		c.stats.L2Misses++
		t2 := c.fillFromDRAM(hs, line, home, t)
		offchip = t2 - t
		t = t2
	}
	var act coherence.Action
	if write {
		act = hs.dir.RemoteWrite(idx)
		hs.l2.SetState(idx, cache.Modified)
	} else {
		act = hs.dir.RemoteRead(idx)
	}
	sharers := c.applyCoherence(hs, line, home, act, write)
	t += sharers
	ls.busy += t - txnStart
	ls.count++
	// Word-granularity reply.
	t4, fh := m.mesh.Traverse(home, c.core, m.cfg.CtrlPacketBits+64, t)
	c.energy.FlitHops += uint64(fh)
	reqReply := (t4 - t) + (busy - start - wait) + m.cfg.L2LatencyCycles
	c.brk[exec.CompL1ToL2] += reqReply
	c.brk[exec.CompWaiting] += wait
	c.brk[exec.CompSharers] += sharers
	c.brk[exec.CompOffChip] += offchip
	c.now = start + reqReply + wait + sharers + offchip
}
