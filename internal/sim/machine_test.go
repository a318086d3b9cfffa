package sim

import (
	"testing"

	"crono/internal/exec"
)

func smallConfig() Config {
	cfg := Default()
	cfg.Cores = 16
	return cfg
}

func mustMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad = Default()
	bad.LineBytes = 32
	if err := bad.Validate(); err == nil {
		t.Fatal("non-64B lines accepted")
	}
	bad = Default()
	bad.OOOHideFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("hide fraction 1.5 accepted")
	}
	bad = Default()
	bad.MemControllers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero controllers accepted")
	}
	for _, cores := range []int{10, 15, 255, 257} {
		bad = Default()
		bad.Cores = cores
		if err := bad.Validate(); err == nil {
			t.Fatalf("%d cores (not a square mesh) accepted", cores)
		}
	}
}

func TestNewRejectsNonSquareCores(t *testing.T) {
	cfg := Default()
	cfg.Cores = 15
	if _, err := New(cfg); err == nil {
		t.Fatal("15 cores accepted")
	}
}

func TestAllocRegionsDisjointAndAligned(t *testing.T) {
	m := mustMachine(t, smallConfig())
	a := m.Alloc("a", 100, 4)
	b := m.Alloc("b", 3, 8)
	if a.Base%64 != 0 || b.Base%64 != 0 {
		t.Fatalf("regions not line aligned: %d %d", a.Base, b.Base)
	}
	if b.Base < a.Base+a.Bytes() {
		t.Fatalf("regions overlap: a=[%d,+%d) b=%d", a.Base, a.Bytes(), b.Base)
	}
	if a.At(1)-a.At(0) != 4 {
		t.Fatal("element stride wrong")
	}
}

func TestColdMissThenHit(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 16, 4)
	rep := m.Run(1, func(c exec.Ctx) {
		c.Load(r.At(0))
		c.Load(r.At(0))
		c.Load(r.At(1)) // same line: hit
	})
	if rep.Cache.L1DAccesses != 3 {
		t.Fatalf("accesses %d, want 3", rep.Cache.L1DAccesses)
	}
	if rep.Cache.L1DMisses[exec.MissCold] != 1 {
		t.Fatalf("cold misses %d, want 1", rep.Cache.L1DMisses[exec.MissCold])
	}
	if rep.Cache.L1DMisses[exec.MissCapacity] != 0 || rep.Cache.L1DMisses[exec.MissSharing] != 0 {
		t.Fatalf("unexpected miss classes: %v", rep.Cache.L1DMisses)
	}
	if rep.Cache.L2Misses != 1 {
		t.Fatalf("L2 misses %d, want 1", rep.Cache.L2Misses)
	}
	if rep.Breakdown[exec.CompOffChip] == 0 {
		t.Fatal("no off-chip time for a DRAM fill")
	}
	if rep.Time == 0 {
		t.Fatal("zero completion time")
	}
}

func TestCapacityMissClassification(t *testing.T) {
	cfg := smallConfig()
	m := mustMachine(t, cfg)
	// Touch far more lines than L1 capacity (32KB = 512 lines), then
	// re-touch the first line: it must be a capacity miss.
	lines := 4 * cfg.L1DSizeB / cfg.LineBytes
	r := m.Alloc("big", lines*16, 4) // 16 ints per line
	rep := m.Run(1, func(c exec.Ctx) {
		for i := 0; i < lines; i++ {
			c.Load(r.At(i * 16))
		}
		c.Load(r.At(0))
	})
	if rep.Cache.L1DMisses[exec.MissCapacity] != 1 {
		t.Fatalf("capacity misses %d, want 1 (%v)", rep.Cache.L1DMisses[exec.MissCapacity], rep.Cache.L1DMisses)
	}
	if got := rep.Cache.L1DMisses[exec.MissCold]; got != uint64(lines) {
		t.Fatalf("cold misses %d, want %d", got, lines)
	}
}

func TestSharingMissClassification(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("shared", 16, 4)
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		if c.TID() == 0 {
			c.Load(r.At(0)) // cold
			c.Barrier(bar)
			// t1 writes here, invalidating us.
			c.Barrier(bar)
			c.Load(r.At(0)) // sharing miss
		} else {
			c.Barrier(bar)
			c.Store(r.At(0))
			c.Barrier(bar)
		}
	})
	if rep.Cache.L1DMisses[exec.MissSharing] != 1 {
		t.Fatalf("sharing misses %d, want 1 (%v)", rep.Cache.L1DMisses[exec.MissSharing], rep.Cache.L1DMisses)
	}
	if rep.Breakdown[exec.CompSharers] == 0 {
		t.Fatal("no sharer time despite invalidation")
	}
}

func TestWriteUpgradeIsNotAMiss(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 16, 4)
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		// Both read (line becomes shared in both L1s), then t0 writes:
		// an upgrade, not a miss.
		c.Load(r.At(0))
		c.Barrier(bar)
		if c.TID() == 0 {
			c.Store(r.At(0))
		}
	})
	// 3 data accesses; misses: 1 cold (first reader) + 1 cold (second
	// reader fetches too). The upgrade store adds no miss.
	var misses uint64
	for _, v := range rep.Cache.L1DMisses {
		misses += v
	}
	if misses != 2 {
		t.Fatalf("misses %d, want 2 (%v)", misses, rep.Cache.L1DMisses)
	}
}

func TestLockTransfersWaitInVirtualTime(t *testing.T) {
	m := mustMachine(t, smallConfig())
	l := m.NewLock()
	r := m.Alloc("shared", 16, 4)
	bar := m.NewBarrier(4)
	// Barrier-paced rounds guarantee the critical section transfers
	// between cores every round (an unpaced loop can run whole on one
	// thread within a window, with no hand-offs at all).
	rep := m.Run(4, func(c exec.Ctx) {
		for i := 0; i < 25; i++ {
			c.Barrier(bar)
			c.Lock(l)
			c.Load(r.At(0))
			c.Compute(20)
			c.Store(r.At(0))
			c.Unlock(l)
		}
	})
	if rep.Breakdown[exec.CompSync] == 0 {
		t.Fatal("contended lock produced no synchronization time")
	}
	// The protected data line ping-pongs between cores: sharing misses
	// and sharer time appear.
	if rep.Cache.L1DMisses[exec.MissSharing] == 0 {
		t.Fatal("no sharing misses from protected-data ping-pong")
	}
}

func TestBarrierReconcilesClocks(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(2)
	var t0, t1 uint64
	m.Run(2, func(c exec.Ctx) {
		if c.TID() == 0 {
			c.Compute(10000) // arrives late
		}
		c.Barrier(bar)
		if c.TID() == 0 {
			t0 = nowOf(c)
		} else {
			t1 = nowOf(c)
		}
	})
	if t0 != t1 {
		t.Fatalf("clocks differ after barrier: %d vs %d", t0, t1)
	}
	if t0 < 10000 {
		t.Fatalf("barrier released at %d before slowest arrival", t0)
	}
}

func nowOf(c exec.Ctx) uint64 { return c.Model().(*ctx).now }

func TestBarrierChargesWaitersSync(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		if c.TID() == 0 {
			c.Compute(5000)
		}
		c.Barrier(bar)
	})
	if rep.Breakdown[exec.CompSync] < 5000 {
		t.Fatalf("sync %d, want >= 5000", rep.Breakdown[exec.CompSync])
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	m := mustMachine(t, smallConfig())
	bar := m.NewBarrier(3)
	rep := m.Run(3, func(c exec.Ctx) {
		for i := 0; i < 20; i++ {
			c.Compute(c.TID()*13 + 1)
			c.Barrier(bar)
		}
	})
	if rep.Time == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestOOOHidesMemoryLatency(t *testing.T) {
	run := func(ct CoreType) *exec.Report {
		cfg := smallConfig()
		cfg.CoreType = ct
		m := mustMachine(t, cfg)
		r := m.Alloc("stream", 1<<14, 4)
		return m.Run(1, func(c exec.Ctx) {
			for i := 0; i < 1<<14; i += 16 {
				c.Load(r.At(i))
			}
		})
	}
	in := run(InOrder)
	ooo := run(OutOfOrder)
	if ooo.Time >= in.Time {
		t.Fatalf("OOO (%d) not faster than in-order (%d) on a memory stream", ooo.Time, in.Time)
	}
	// OOO must not hide everything.
	if ooo.Breakdown[exec.CompL1ToL2] == 0 {
		t.Fatal("OOO hid all L1->L2 time")
	}
}

func TestOOODoesNotHideSharersOrSync(t *testing.T) {
	for _, ct := range []CoreType{InOrder, OutOfOrder} {
		cfg := smallConfig()
		cfg.CoreType = ct
		m := mustMachine(t, cfg)
		l := m.NewLock()
		rep := m.Run(2, func(c exec.Ctx) {
			for i := 0; i < 30; i++ {
				c.Lock(l)
				c.Compute(50)
				c.Unlock(l)
			}
		})
		if rep.Breakdown[exec.CompSync] == 0 {
			t.Fatalf("%v: no sync time", ct)
		}
	}
}

func TestBreakdownAccountsAllThreadTime(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 1024, 4)
	l := m.NewLock()
	bar := m.NewBarrier(2)
	rep := m.Run(2, func(c exec.Ctx) {
		for i := 0; i < 200; i++ {
			c.Load(r.At((i * 37) % 1024))
			if i%10 == 0 {
				c.Lock(l)
				c.Store(r.At(0))
				c.Unlock(l)
			}
		}
		c.Barrier(bar)
	})
	// Each thread's virtual clock equals the sum of its attributed
	// components; the aggregate breakdown must be >= max thread time and
	// <= threads * max.
	total := rep.Breakdown.Total()
	if total < rep.Time || total > rep.Time*2 {
		t.Fatalf("breakdown total %d vs time %d (2 threads)", total, rep.Time)
	}
}

func TestEnergyAndNetworkCounters(t *testing.T) {
	m := mustMachine(t, smallConfig())
	r := m.Alloc("x", 4096, 4)
	rep := m.Run(2, func(c exec.Ctx) {
		for i := 0; i < 1000; i++ {
			c.Load(r.At((i * 16) % 4096))
		}
		c.Compute(100)
	})
	if rep.Energy.Total() <= 0 {
		t.Fatal("no energy recorded")
	}
	if rep.Energy[exec.EnergyRouter] <= 0 || rep.Energy[exec.EnergyLink] <= 0 {
		t.Fatal("no network energy")
	}
	if rep.Energy[exec.EnergyDRAM] <= 0 {
		t.Fatal("no DRAM energy")
	}
	if rep.NetworkFlitHops == 0 {
		t.Fatal("no flit hops")
	}
	if rep.TotalInstructions() == 0 {
		t.Fatal("no instructions")
	}
}

func TestLocalityAwareAvoidsL1Thrashing(t *testing.T) {
	base := smallConfig()
	la := smallConfig()
	la.LocalityAware = true
	la.LocalityThreshold = 4
	stream := func(cfg Config) *exec.Report {
		m := mustMachine(t, cfg)
		lines := 4 * cfg.L1DSizeB / cfg.LineBytes
		r := m.Alloc("stream", lines*16, 4)
		return m.Run(1, func(c exec.Ctx) {
			// Two passes over a stream with no reuse within L1 capacity.
			for p := 0; p < 2; p++ {
				for i := 0; i < lines; i++ {
					c.Load(r.At(i * 16))
				}
			}
		})
	}
	b := stream(base)
	l := stream(la)
	var bMiss, lMiss uint64
	for i := range b.Cache.L1DMisses {
		bMiss += b.Cache.L1DMisses[i]
		lMiss += l.Cache.L1DMisses[i]
	}
	if lMiss >= bMiss {
		t.Fatalf("locality-aware misses %d not below baseline %d", lMiss, bMiss)
	}
}

func TestActiveTelemetry(t *testing.T) {
	m := mustMachine(t, smallConfig())
	rep := m.Run(2, func(c exec.Ctx) {
		for i := 0; i < 200; i++ {
			c.Active(1)
			c.Compute(5)
			c.Active(-1)
		}
	})
	if len(rep.ActiveTrace) == 0 {
		t.Fatal("no active-vertex samples")
	}
	for i := 1; i < len(rep.ActiveTrace); i++ {
		if rep.ActiveTrace[i].Time < rep.ActiveTrace[i-1].Time {
			t.Fatal("trace not time ordered")
		}
	}
}

func TestRunPanicsOnTooManyThreads(t *testing.T) {
	m := mustMachine(t, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for threads > cores")
		}
	}()
	m.Run(17, func(exec.Ctx) {})
}

func TestForeignHandlesPanic(t *testing.T) {
	m := mustMachine(t, smallConfig())
	c := &ctx{m: m}
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("no panic for foreign %s", name)
			}
		}()
		f()
	}
	check("lock", func() { c.Lock(struct{}{}) })
	check("unlock", func() { c.Unlock(struct{}{}) })
	check("barrier", func() { c.Barrier(struct{}{}) })
}

func TestSingleThreadDeterminism(t *testing.T) {
	run := func() *exec.Report {
		m := mustMachine(t, smallConfig())
		r := m.Alloc("x", 8192, 4)
		return m.Run(1, func(c exec.Ctx) {
			for i := 0; i < 5000; i++ {
				a := (i * 131) % 8192
				if i%3 == 0 {
					c.Store(r.At(a))
				} else {
					c.Load(r.At(a))
				}
			}
		})
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Fatalf("nondeterministic single-thread time: %d vs %d", a.Time, b.Time)
	}
	if a.Breakdown != b.Breakdown {
		t.Fatalf("nondeterministic breakdown: %v vs %v", a.Breakdown, b.Breakdown)
	}
	if a.Cache != b.Cache {
		t.Fatalf("nondeterministic cache stats: %+v vs %+v", a.Cache, b.Cache)
	}
}

func TestNextLinePrefetchHelpsStreams(t *testing.T) {
	run := func(pf bool) *exec.Report {
		cfg := smallConfig()
		cfg.NextLinePrefetch = pf
		m := mustMachine(t, cfg)
		r := m.Alloc("stream", 1<<14, 4)
		return m.Run(1, func(c exec.Ctx) {
			// Two passes so prefetched lines get demand hits.
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < 1<<14; i += 16 {
					c.Load(r.At(i))
				}
			}
		})
	}
	base := run(false)
	pf := run(true)
	var bm, pm uint64
	for i := range base.Cache.L1DMisses {
		bm += base.Cache.L1DMisses[i]
		pm += pf.Cache.L1DMisses[i]
	}
	if pm >= bm {
		t.Fatalf("prefetch misses %d not below baseline %d", pm, bm)
	}
	if pf.Time >= base.Time {
		t.Fatalf("prefetch time %d not below baseline %d", pf.Time, base.Time)
	}
}

func TestHeteroMasterOnlyCoreZeroHidesLatency(t *testing.T) {
	cfg := smallConfig()
	cfg.HeteroMasterOOO = true
	m := mustMachine(t, cfg)
	if !m.coreIsOOO(0) || m.coreIsOOO(1) {
		t.Fatal("hetero mapping wrong")
	}
	cfg = smallConfig()
	cfg.CoreType = OutOfOrder
	m = mustMachine(t, cfg)
	if !m.coreIsOOO(0) || !m.coreIsOOO(7) {
		t.Fatal("homogeneous OOO mapping wrong")
	}
}

func TestThreadPlacementSpreads(t *testing.T) {
	cfg := Default()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 16, 64, 100, 256} {
		seen := map[int]bool{}
		var xs, ys map[int]bool
		xs, ys = map[int]bool{}, map[int]bool{}
		for tid := 0; tid < p; tid++ {
			core := m.placeThread(tid, p)
			if core < 0 || core >= cfg.Cores {
				t.Fatalf("p=%d tid=%d core %d out of range", p, tid, core)
			}
			if seen[core] {
				t.Fatalf("p=%d: core %d assigned twice", p, core)
			}
			seen[core] = true
			xs[core%16] = true
			ys[core/16] = true
		}
		// 16+ threads must span multiple mesh rows and columns.
		if p >= 16 && (len(xs) < 4 || len(ys) < 4) {
			t.Fatalf("p=%d: placement aliases into %d columns x %d rows", p, len(xs), len(ys))
		}
	}
}

func TestWindowThrottleBalancesCapture(t *testing.T) {
	// A shared work counter distributed via a lock: without the window,
	// the first thread to run could take most units.
	cfg := smallConfig()
	m := mustMachine(t, cfg)
	l := m.NewLock()
	r := m.Alloc("work", 1<<16, 4)
	next := 0
	rep := m.Run(8, func(c exec.Ctx) {
		for {
			c.Lock(l)
			unit := next
			next++
			c.Unlock(l)
			if unit >= 64 {
				return
			}
			// Each unit is substantial virtual work.
			for i := 0; i < 2000; i++ {
				c.Load(r.At((unit*997 + i*31) % (1 << 16)))
			}
		}
	})
	if v := rep.Variability(); v > 0.6 {
		t.Fatalf("dynamic work severely imbalanced: variability %g", v)
	}
}
