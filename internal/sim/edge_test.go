package sim

import (
	"testing"

	"crono/internal/exec"
)

// TestBroadcastInvalidationBeyondPointers: more sharers than ACKWise-4
// pointers, then a write — every private copy must be invalidated
// (broadcast) and re-reads classify as sharing misses.
func TestBroadcastInvalidationBeyondPointers(t *testing.T) {
	m := mustMachine(t, smallConfig()) // 16 cores, 4 pointers
	r := m.Alloc("hot", 16, 4)
	bar := m.NewBarrier(9)
	rep := m.Run(9, func(c exec.Ctx) {
		if c.TID() < 8 {
			c.Load(r.At(0)) // 8 sharers > 4 pointers
		}
		c.Barrier(bar)
		if c.TID() == 8 {
			c.Store(r.At(0)) // broadcast invalidation
		}
		c.Barrier(bar)
		if c.TID() < 8 {
			c.Load(r.At(0)) // sharing miss for every previous sharer
		}
	})
	if got := rep.Cache.L1DMisses[exec.MissSharing]; got != 8 {
		t.Fatalf("sharing misses %d, want 8 (%v)", got, rep.Cache.L1DMisses)
	}
}

// TestDirtyLineFlushedToReader: a reader after a writer gets the data via
// a sharer flush (L2Home-Sharers time) and both end up with consistent
// state for further hits.
func TestDirtyLineFlushedToReader(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 16, 4)
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		if c.TID() == 0 {
			c.Store(r.At(0)) // M in core 0
		}
		c.Barrier(bar)
		if c.TID() == 1 {
			c.Load(r.At(0)) // flush + downgrade
			c.Load(r.At(0)) // hit
		}
	})
	if rep.Breakdown[exec.CompSharers] == 0 {
		t.Fatal("no sharer time for dirty flush")
	}
	// Accesses: 1 store + 2 loads; misses: 2 (store cold, load cold).
	if rep.Cache.L1DAccesses != 3 {
		t.Fatalf("accesses %d", rep.Cache.L1DAccesses)
	}
	var misses uint64
	for _, v := range rep.Cache.L1DMisses {
		misses += v
	}
	if misses != 2 {
		t.Fatalf("misses %d, want 2", misses)
	}
}

// TestL2BackInvalidation: with a tiny L2, streaming far past its capacity
// forces inclusive back-invalidation of L1 copies; the machine must stay
// consistent and re-accesses must miss.
func TestL2BackInvalidation(t *testing.T) {
	cfg := smallConfig()
	cfg.L2SliceSizeB = 16 << 10 // 256 lines per slice, 4096 total
	m := mustMachine(t, cfg)
	lines := 4096 * 4
	r := m.Alloc("huge", lines*16, 4)
	rep := m.Run(1, func(c exec.Ctx) {
		for i := 0; i < lines; i++ {
			c.Load(r.At(i * 16))
		}
		// The first line was back-invalidated from L1 when its L2 entry
		// was evicted (or evicted from L1 itself): either way a miss.
		c.Load(r.At(0))
	})
	if rep.Cache.L1DMisses[exec.MissCapacity] == 0 {
		t.Fatalf("no capacity-class miss after back-invalidation: %v", rep.Cache.L1DMisses)
	}
	if rep.Cache.L2Misses < uint64(lines) {
		t.Fatalf("L2 misses %d below stream length %d", rep.Cache.L2Misses, lines)
	}
}

// TestLocalityAwareRemoteWritesStayCoherent: remote (uncached) writes
// must invalidate cached copies so later reads see a coherent protocol
// state (timing model only, but the state machine must not wedge).
func TestLocalityAwareRemoteWritesStayCoherent(t *testing.T) {
	cfg := smallConfig()
	cfg.LocalityAware = true
	cfg.LocalityThreshold = 2
	m := mustMachine(t, cfg)
	r := m.Alloc("x", 16, 4)
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		for i := 0; i < 8; i++ {
			if c.TID() == 0 {
				c.Store(r.At(0))
			} else {
				c.Load(r.At(0))
			}
			c.Barrier(bar)
		}
	})
	if rep.Time == 0 || rep.Cache.L2Accesses == 0 {
		t.Fatal("remote accesses not modeled")
	}
}

// TestPrefetchNeverGoesOffChip: the next-line prefetcher must not add
// DRAM traffic (it only promotes lines already on chip).
func TestPrefetchNeverGoesOffChip(t *testing.T) {
	run := func(pf bool) *exec.Report {
		cfg := smallConfig()
		cfg.NextLinePrefetch = pf
		m := mustMachine(t, cfg)
		r := m.Alloc("s", 4096, 4)
		return m.Run(1, func(c exec.Ctx) {
			for i := 0; i < 4096; i += 16 {
				c.Load(r.At(i))
			}
		})
	}
	base := run(false)
	pf := run(true)
	if pf.Cache.L2Misses > base.Cache.L2Misses {
		t.Fatalf("prefetch added off-chip fills: %d > %d", pf.Cache.L2Misses, base.Cache.L2Misses)
	}
}

// TestMCPBacklogSerializesOversubscription: when every thread hammers
// locks, aggregate MCP demand exceeds capacity and synchronization time
// must dominate — the paper's lock-per-edge wall.
func TestMCPBacklogSerializesOversubscription(t *testing.T) {
	m := mustMachine(t, smallConfig())
	locks := make([]exec.Lock, 64)
	for i := range locks {
		locks[i] = m.NewLock()
	}
	rep := m.Run(16, func(c exec.Ctx) {
		for i := 0; i < 200; i++ {
			l := locks[(c.TID()*31+i)%64]
			c.Lock(l)
			c.Unlock(l)
		}
	})
	f := rep.Breakdown.Fractions()
	if f[exec.CompSync] < 0.5 {
		t.Fatalf("sync fraction %.2f under lock oversubscription, want > 0.5", f[exec.CompSync])
	}
}

// TestHierarchyInclusionInvariant: no line may be valid in an L1 without
// a live directory entry (inclusive L2). Exercised via a mixed workload,
// then verified through the directory's own view.
func TestHierarchyInclusionInvariant(t *testing.T) {
	cfg := smallConfig()
	cfg.L2SliceSizeB = 16 << 10
	m := mustMachine(t, cfg)
	r := m.Alloc("mix", 1<<15, 4)
	bar := m.NewBarrier(4)
	m.Run(4, func(c exec.Ctx) {
		for i := 0; i < 4000; i++ {
			a := (i*131 + c.TID()*7919) % (1 << 15)
			if i%3 == 0 {
				c.Store(r.At(a))
			} else {
				c.Load(r.At(a))
			}
		}
		c.Barrier(bar)
	})
	// Every line still valid in some L1 must be tracked by the directory.
	base := r.Base >> 6
	lines := r.Bytes() / 64
	for l := base; l < base+lines; l++ {
		holders := 0
		for core := 0; core < cfg.Cores; core++ {
			if m.cores[core].l1.Peek(l) != 0 {
				holders++
			}
		}
		if holders > 0 && m.homeShardOf(l).dir.Sharers(m.l2Index(l)) == 0 {
			t.Fatalf("line %d cached by %d cores but idle in directory", l, holders)
		}
	}
}

// TestEveryCycleIsAttributed: per-thread virtual time must equal the sum
// of breakdown components exactly — the completion-time decomposition
// conserves cycles.
func TestEveryCycleIsAttributed(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 1<<14, 4)
	l := m.NewLock()
	bar := m.NewBarrier(4)
	rep := m.Run(4, func(c exec.Ctx) {
		for i := 0; i < 500; i++ {
			a := (i*173 + c.TID()*977) % (1 << 14)
			if i%4 == 0 {
				c.Store(r.At(a))
			} else {
				c.Load(r.At(a))
			}
			if i%16 == 0 {
				c.Lock(l)
				c.Compute(3)
				c.Unlock(l)
			}
			if i%100 == 0 {
				c.Barrier(bar)
			}
		}
		c.LoadSpan(r.At(0), 256, 4)
		c.Barrier(bar)
	})
	var threadSum uint64
	for _, tt := range rep.ThreadTime {
		threadSum += tt
	}
	if rep.Breakdown.Total() != threadSum {
		t.Fatalf("breakdown %d != thread time %d: cycles leaked",
			rep.Breakdown.Total(), threadSum)
	}
}

// TestReconstructTraceKeepsLastSample regression (mirrors the native
// platform's test): a non-divisible downsampling step must still keep
// the final sample, and the output must not alias the input.
func TestReconstructTraceKeepsLastSample(t *testing.T) {
	deltas := make([]exec.ActiveSample, 8)
	for i := range deltas {
		deltas[i] = exec.ActiveSample{Time: uint64(i), Active: 1}
	}
	out := reconstructTrace(deltas, 3) // step 3: strided 0, 3, 6 + final 7
	want := []exec.ActiveSample{{Time: 0, Active: 1}, {Time: 3, Active: 4}, {Time: 6, Active: 7}, {Time: 7, Active: 8}}
	if len(out) != len(want) {
		t.Fatalf("trace has %d points %v, want %d", len(out), out, len(want))
	}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("trace[%d] = %+v, want %+v", i, out[i], w)
		}
	}
}
