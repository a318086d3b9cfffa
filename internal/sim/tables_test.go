package sim

import (
	"testing"

	"crono/internal/exec"
)

func TestDispTableUntouchedReadsCold(t *testing.T) {
	var d dispTable
	for _, line := range []uint64{0, 1, dispPageLines - 1, dispPageLines, 1 << 32, 1<<32 + 5} {
		if got := d.get(line); got != dispCold {
			t.Fatalf("untouched line %d reads %d, want cold", line, got)
		}
	}
	if len(d.pages) != 0 {
		t.Fatalf("reads allocated %d directory slots", len(d.pages))
	}
	// A touched page still reads cold for the lines nobody set.
	d.set(7, dispPresent)
	if got := d.get(8); got != dispCold {
		t.Fatalf("neighbour of a set line reads %d, want cold", got)
	}
}

func TestDispTableSetGet(t *testing.T) {
	var d dispTable
	// Lines either side of a word boundary, of a page boundary, and far
	// past 2^32; every disposition value on each, then overwritten.
	lines := []uint64{0, 31, 32, dispPageLines - 1, dispPageLines, dispPageLines + 1, 1 << 32, 1<<32 + 33}
	values := []byte{dispPresent, dispEvicted, dispInvalidated, dispCold}
	for round := range values {
		for i, line := range lines {
			d.set(line, values[(i+round)%len(values)])
		}
		for i, line := range lines {
			if got, want := d.get(line), values[(i+round)%len(values)]; got != want {
				t.Fatalf("round %d: line %d reads %d, want %d", round, line, got, want)
			}
		}
	}
	// Only the pages holding a set line exist.
	live := 0
	for _, p := range d.pages {
		if p != nil {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("%d pages allocated, want 3 (lines 0.., %d.., 2^32..)", live, dispPageLines)
	}
}

// TestDispositionSequence pins the classification a core's disposition
// table feeds, on an L1 of one 4-way set: a line is cold on first touch,
// a capacity miss after four other lines pushed it out, and a sharing
// miss after another core's store took it away.
func TestDispositionSequence(t *testing.T) {
	cfg := smallConfig()
	cfg.L1DSizeB, cfg.L1DWays = 4*cfg.LineBytes, 4
	m := mustMachine(t, cfg)
	r := m.Alloc("x", 5*16, 4) // five lines of 16 ints
	bar := m.NewBarrier(2)
	var after [3]exec.CacheStats // core 0's counters after each step
	m.Run(2, func(c exec.Ctx) {
		if c.TID() != 0 {
			c.Barrier(bar)
			c.Store(r.At(0))
			c.Barrier(bar)
			return
		}
		stats := &c.Model().(*ctx).stats
		for line := 0; line < 5; line++ {
			c.Load(r.At(line * 16)) // five cold misses; the fifth evicts line 0
		}
		after[0] = *stats
		c.Load(r.At(0))
		after[1] = *stats
		c.Barrier(bar)
		c.Barrier(bar)
		c.Load(r.At(0))
		after[2] = *stats
	})
	want := [3][3]uint64{ // cold, capacity, sharing
		{5, 0, 0},
		{5, 1, 0},
		{5, 1, 1},
	}
	for step, s := range after {
		got := [3]uint64{s.L1DMisses[exec.MissCold], s.L1DMisses[exec.MissCapacity], s.L1DMisses[exec.MissSharing]}
		if got != want[step] {
			t.Fatalf("after step %d: cold/capacity/sharing misses %v, want %v", step, got, want[step])
		}
	}
}

// TestLineStatTableGrowthKeepsPointers: slots keep their identity and
// contents as the table grows to a far chunk, like individually
// heap-allocated lineStats would, and the chunks in between are never
// allocated.
func TestLineStatTableGrowthKeepsPointers(t *testing.T) {
	var tab lineStatTable
	n := uint64(lineStatChunk*2 + 7)
	ptrs := make([]*lineStat, n)
	for i := uint64(0); i < n; i++ {
		ls := tab.at(i)
		if *ls != (lineStat{}) {
			t.Fatalf("slot %d not zero-valued", i)
		}
		ls.count = i + 1
		ptrs[i] = ls
	}
	first := tab.pages[0]
	far := tab.at(lineStatChunk * 1000)
	far.busy = 99
	for i, ls := range ptrs {
		if tab.at(uint64(i)) != ls {
			t.Fatalf("slot %d moved when the table grew", i)
		}
		if ls.count != uint64(i)+1 || ls.busy != 0 {
			t.Fatalf("slot %d clobbered: %+v", i, *ls)
		}
	}
	if tab.pages[0] != first {
		t.Fatal("first chunk reallocated")
	}
	live := 0
	for _, c := range tab.pages {
		if c != nil {
			live++
		}
	}
	if live != 4 {
		t.Fatalf("%d chunks allocated, want 4 (three dense, one far)", live)
	}
}

// TestLineStatsOfEqualIndexDoNotAlias: lines k*Cores and k*Cores+1 share
// the slice-local index k on neighbouring homes; each home counts only
// its own line's transactions.
func TestLineStatsOfEqualIndexDoNotAlias(t *testing.T) {
	cfg := smallConfig()
	m := mustMachine(t, cfg)
	r := m.Alloc("x", 4*cfg.Cores*16, 4)
	base := r.Base >> m.lineBits
	// The first line of the region homed on tile 0, and its successor.
	a := (base + uint64(cfg.Cores) - 1) / uint64(cfg.Cores) * uint64(cfg.Cores)
	b := a + 1
	if m.home(a) != 0 || m.home(b) != 1 || m.l2Index(a) != m.l2Index(b) {
		t.Fatalf("lines %d and %d: homes %d, %d, indices %d, %d", a, b, m.home(a), m.home(b), m.l2Index(a), m.l2Index(b))
	}
	m.Run(1, func(c exec.Ctx) {
		c.Load(a << m.lineBits)
		c.Store(b << m.lineBits)
		c.Store(b << m.lineBits) // E->M upgrade: no home transaction
	})
	sa, sb := m.homes[0].lines.at(m.l2Index(a)), m.homes[1].lines.at(m.l2Index(b))
	if sa == sb {
		t.Fatal("two homes share a slot")
	}
	if sa.count != 1 || sb.count != 1 {
		t.Fatalf("transactions counted: line a %d, line b %d, want 1 and 1", sa.count, sb.count)
	}
}

// warmThread returns a one-thread context on a machine whose L1, L2,
// directory and both line tables have already seen every line of r, the
// way a kernel's second pass finds them.
func warmThread(tb testing.TB, lines int) (*ctx, exec.Region) {
	tb.Helper()
	cfg := smallConfig()
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := m.Alloc("ws", lines*16, 4)
	c := &ctx{m: m, limit: exec.NoLimit}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Load(r.At(i * 16))
		}
	}
	return c, r
}

// TestWarmAccessDoesNotAllocate is the host-independent form of the miss
// path's cost: once a line has been seen, neither an L1 hit nor a
// capacity miss served by the L2 (working set four times the L1, well
// inside the L2) allocates.
func TestWarmAccessDoesNotAllocate(t *testing.T) {
	cfg := smallConfig()
	lines := 4 * cfg.L1DSizeB / cfg.LineBytes
	c, r := warmThread(t, lines)

	before := c.stats
	if n := testing.AllocsPerRun(5, func() {
		for i := 0; i < 64; i++ {
			c.Load(r.At((lines - 1) * 16))
		}
	}); n != 0 {
		t.Errorf("L1 hits allocate %v times per run", n)
	}
	if c.stats.L1DMisses != before.L1DMisses {
		t.Fatalf("the hit loop missed: %v -> %v", before.L1DMisses, c.stats.L1DMisses)
	}

	before = c.stats
	if n := testing.AllocsPerRun(5, func() {
		for i := 0; i < lines; i++ {
			c.Load(r.At(i * 16))
		}
	}); n != 0 {
		t.Errorf("capacity misses allocate %v times per run", n)
	}
	got := c.stats.L1DMisses[exec.MissCapacity] - before.L1DMisses[exec.MissCapacity]
	if want := uint64(6 * lines); got != want { // AllocsPerRun runs the loop once to warm up
		t.Fatalf("the miss loop took %d capacity misses, want %d", got, want)
	}
	if c.stats.L2Misses != before.L2Misses {
		t.Fatalf("the miss loop went off chip: L2 misses %d -> %d", before.L2Misses, c.stats.L2Misses)
	}
}

// BenchmarkAccessHit is one L1 hit through ctx.access.
func BenchmarkAccessHit(b *testing.B) {
	c, r := warmThread(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(r.At(i % 64 * 16))
	}
}

// BenchmarkAnnotateSim is BenchmarkAccessHit issued the way a kernel
// issues it, through the exec.Ctx in front of the model, beside the same
// hit issued on the model directly: the difference is the nil test and
// the interface call exec.Thread puts in front of a modelled access.
func BenchmarkAnnotateSim(b *testing.B) {
	c, r := warmThread(b, 64)
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Load(r.At(i % 64 * 16))
		}
	})
	b.Run("ctx", func(b *testing.B) {
		th := exec.NewThread(0, 1, c, c)
		for i := 0; i < b.N; i++ {
			th.Load(r.At(i % 64 * 16))
		}
	})
}

// BenchmarkAccessMiss is one L1 capacity miss served by the L2: the
// request and the reply cross the mesh, the home prices the line, the
// directory grants it and the disposition table is read and written.
func BenchmarkAccessMiss(b *testing.B) {
	cfg := smallConfig()
	lines := 4 * cfg.L1DSizeB / cfg.LineBytes
	c, r := warmThread(b, lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(r.At(i % lines * 16))
	}
}

// BenchmarkNewMachine is the set-up every simulated run pays before its
// first reference, at the repository benchmark's 64 cores.
func BenchmarkNewMachine(b *testing.B) {
	cfg := Default()
	cfg.Cores = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
