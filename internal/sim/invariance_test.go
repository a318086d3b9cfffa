package sim

import (
	"fmt"
	"strings"
	"testing"

	"crono/internal/exec"
)

// countFingerprint reduces a report to its schedule-independent aggregate
// event counts: total L1 accesses, per-class miss sums, L2 traffic,
// instructions, and the energy components that derive from event counts
// alone. Router and link energy are excluded — they derive from flit-hops,
// which depend on where placeThread puts each thread, so they legitimately
// vary with the thread count (though not with the host schedule).
func countFingerprint(rep *exec.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "l1a=%d l1m=%v l2a=%d l2m=%d instr=%d",
		rep.Cache.L1DAccesses, rep.Cache.L1DMisses, rep.Cache.L2Accesses, rep.Cache.L2Misses,
		rep.TotalInstructions())
	for _, comp := range []exec.EnergyComponent{exec.EnergyL1I, exec.EnergyL1D, exec.EnergyL2, exec.EnergyDir, exec.EnergyDRAM} {
		fmt.Fprintf(&b, " %s=%.3f", comp, rep.Energy[comp])
	}
	return b.String()
}

// The invariant workload divides a fixed set of cache lines into slices
// and deals the slices round-robin over however many threads run, so the
// total work is identical at every thread count. It is load-only (dirty
// write-backs would make eviction traffic placement-dependent) and each
// line is touched twice back to back (one cold miss, one guaranteed L1
// hit). The line count stays far below one L1's capacity so a single
// thread holding every slice in one cache evicts nothing.
const (
	invSlices        = 16
	invLinesPerSlice = 24
)

func runInvariantWorkload(t *testing.T, cfg Config, threads int) *exec.Report {
	t.Helper()
	m := mustMachine(t, cfg)
	r := m.Alloc("inv", invSlices*invLinesPerSlice*16, 4) // 16 4-byte elems per line
	return m.Run(threads, func(c exec.Ctx) {
		for s := c.TID(); s < invSlices; s += c.Threads() {
			base := s * invLinesPerSlice * 16
			for l := 0; l < invLinesPerSlice; l++ {
				a := r.At(base + l*16)
				c.Load(a)
				c.Load(a)
			}
		}
	})
}

// TestAggregateCountsThreadInvariant pins the memory system's count
// guarantee: for a fixed workload, total L1 accesses, the per-class miss
// sums, L2 traffic and count-derived energy are identical whether the
// work runs on 1, 4 or 16 simulated threads. Timing may shift (lax
// synchronization permits that); counts may not.
func TestAggregateCountsThreadInvariant(t *testing.T) {
	var want string
	for _, threads := range []int{1, 4, 16} {
		rep := runInvariantWorkload(t, smallConfig(), threads)
		got := countFingerprint(rep)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("aggregate counts differ at %d threads\n got: %s\nwant: %s", threads, got, want)
		}
	}
}

// TestAggregateCountsRepeatable: two identical multi-threaded runs agree
// on every output, timing included: the scheduler, not the host, decides
// the interleaving.
func TestAggregateCountsRepeatable(t *testing.T) {
	a := runInvariantWorkload(t, smallConfig(), 16)
	b := runInvariantWorkload(t, smallConfig(), 16)
	if goldenFingerprint(a) != goldenFingerprint(b) {
		t.Errorf("repeated runs disagree\n  a: %s\n  b: %s", goldenFingerprint(a), goldenFingerprint(b))
	}
}

// TestContendedStoresStayCoherent drives every thread through stores to
// the same few lines, forcing the cross-core paths (invalidations, E->M
// upgrades, L2 victim back-invalidation) to interleave. Asserted
// invariants: instruction and access totals, and per-thread cycle
// conservation (virtual time equals the breakdown sum). Under -race this
// checks that the baton hand-off orders every thread's model updates.
func TestContendedStoresStayCoherent(t *testing.T) {
	cfg := smallConfig()
	cfg.L2SliceSizeB = 16 << 10 // small slices: force L2 victims too
	m := mustMachine(t, cfg)
	const perThread = 3000
	r := m.Alloc("hot", 1<<14, 4)
	rep := m.Run(16, func(c exec.Ctx) {
		for i := 0; i < perThread; i++ {
			a := ((i*131 + c.TID()*17) * 16) % (1 << 14)
			if i%2 == 0 {
				c.Store(r.At(a))
			} else {
				c.Load(r.At(a))
			}
		}
	})
	if got, want := rep.TotalInstructions(), uint64(16*perThread); got != want {
		t.Errorf("instructions %d, want %d", got, want)
	}
	if got, want := rep.Cache.L1DAccesses, uint64(16*perThread); got != want {
		t.Errorf("L1 accesses %d, want %d", got, want)
	}
	var threadSum uint64
	for tid, tt := range rep.ThreadTime {
		if tt == 0 {
			t.Errorf("thread %d reports zero virtual time", tid)
		}
		threadSum += tt
	}
	if bt := rep.Breakdown.Total(); bt != threadSum {
		t.Errorf("breakdown total %d != thread-time sum %d: cycles leaked between threads", bt, threadSum)
	}
}
