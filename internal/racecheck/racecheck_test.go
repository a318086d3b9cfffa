package racecheck

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crono/internal/exec"
	"crono/internal/racecheck/testdata/racykernels"
)

var siteRe = regexp.MustCompile(`^racykernels\.go:\d+$`)

// pinRaces checks everything about the reports except the fixture line
// numbers, which would make every fixture edit a golden churn: exact
// location (region + element), access kinds, thread ids, and that each
// site points into the fixture file.
func pinRaces(t *testing.T, got []Race, want []Race) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d races, want %d:\n%s", len(got), len(want), formatRaces(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Location != w.Location {
			t.Errorf("race %d: location %q, want %q", i, g.Location, w.Location)
		}
		if g.Prior.Kind != w.Prior.Kind || g.Current.Kind != w.Current.Kind {
			t.Errorf("race %d: kinds %q/%q, want %q/%q", i, g.Prior.Kind, g.Current.Kind, w.Prior.Kind, w.Current.Kind)
		}
		if g.Prior.TID != w.Prior.TID || g.Current.TID != w.Current.TID {
			t.Errorf("race %d: tids T%d/T%d, want T%d/T%d", i, g.Prior.TID, g.Current.TID, w.Prior.TID, w.Current.TID)
		}
		if !siteRe.MatchString(g.Prior.Site) || !siteRe.MatchString(g.Current.Site) {
			t.Errorf("race %d: sites %q/%q do not point into racykernels.go", i, g.Prior.Site, g.Current.Site)
		}
	}
}

func formatRaces(rs []Race) string {
	s := ""
	for _, r := range rs {
		s += r.String() + "\n"
	}
	return s
}

func TestSharedCounterGolden(t *testing.T) {
	pl := New()
	_, _, err := racykernels.SharedCounter(pl, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin at 2 threads yields exactly three deduplicated pairs
	// on the counter word: the unlocked increment races read-vs-write,
	// write-vs-write and write-vs-read.
	pinRaces(t, pl.Races(), []Race{
		{Location: "racy.counter[0]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
		{Location: "racy.counter[0]", Prior: RaceAccess{TID: 1, Kind: "read"}, Current: RaceAccess{TID: 0, Kind: "write"}},
		{Location: "racy.counter[0]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "write"}},
	})
}

func TestMissingBarrierGolden(t *testing.T) {
	pl := New()
	_, _, err := racykernels.MissingBarrier(pl, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each cross-chunk read races with the owner's initializing write;
	// locations enumerate every element of the array.
	pinRaces(t, pl.Races(), []Race{
		{Location: "racy.data[0]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.data[1]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.data[2]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
		{Location: "racy.data[3]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
	})
}

// TestGatherSiteNamesTheKernelLine: a gathered read reaches the detector
// through exec's out-of-line replay loop as well as the inlined Thread
// method, and its site must still be the fixture's LoadGather line.
func TestGatherSiteNamesTheKernelLine(t *testing.T) {
	gatherLine := fixtureLine(t, "ctx.LoadGather(")
	pl := New()
	if _, _, err := racykernels.GatherMissingBarrier(pl, 2, 2); err != nil {
		t.Fatal(err)
	}
	races := pl.Races()
	pinRaces(t, races, []Race{
		{Location: "racy.gathered[0]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.gathered[1]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.gathered[2]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
		{Location: "racy.gathered[3]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
	})
	want := fmt.Sprintf("racykernels.go:%d", gatherLine)
	for _, race := range races {
		if race.Current.Site != want {
			t.Errorf("gathered read at %s, want %s", race.Current.Site, want)
		}
	}
}

// TestSweepSiteNamesTheKernelLine: a swept read reaches the detector
// through exec's out-of-line replay loop, as a gathered one does, and
// its site must still be the fixture's LoadSweep line.
func TestSweepSiteNamesTheKernelLine(t *testing.T) {
	sweepLine := fixtureLine(t, "ctx.LoadSweep(")
	pl := New()
	if _, _, err := racykernels.SweepMissingBarrier(pl, 2, 2); err != nil {
		t.Fatal(err)
	}
	races := pl.Races()
	pinRaces(t, races, []Race{
		{Location: "racy.swept[0]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.swept[1]", Prior: RaceAccess{TID: 0, Kind: "write"}, Current: RaceAccess{TID: 1, Kind: "read"}},
		{Location: "racy.swept[2]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
		{Location: "racy.swept[3]", Prior: RaceAccess{TID: 1, Kind: "write"}, Current: RaceAccess{TID: 0, Kind: "read"}},
	})
	want := fmt.Sprintf("racykernels.go:%d", sweepLine)
	for _, race := range races {
		if race.Current.Site != want {
			t.Errorf("swept read at %s, want %s", race.Current.Site, want)
		}
	}
}

// fixtureLine returns the line of the racy fixtures that holds substr,
// the last one if several do.
func fixtureLine(t *testing.T, substr string) int {
	t.Helper()
	src, err := os.ReadFile("testdata/racykernels/racykernels.go")
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, l := range strings.Split(string(src), "\n") {
		if strings.Contains(l, substr) {
			line = i + 1
		}
	}
	return line
}

func TestFixedFixturesReportNothing(t *testing.T) {
	pl := New()
	if _, _, err := racykernels.FixedCounter(pl, 3, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := racykernels.FixedBarrier(pl, 3, 2); err != nil {
		t.Fatal(err)
	}
	if races := pl.Races(); len(races) != 0 {
		t.Fatalf("fixed fixtures reported races:\n%s", formatRaces(races))
	}
}

func TestFixtureResultsCorrectUnderScheduler(t *testing.T) {
	pl := New()
	got, _, err := racykernels.FixedCounter(pl, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("locked counter = %d, want 15", got)
	}
	out, _, err := racykernels.FixedBarrier(pl, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() ([]Race, []uint64) {
		pl := New()
		_, rep, err := racykernels.SharedCounter(pl, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Races(), rep.Instructions
	}
	r1, i1 := run()
	r2, i2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports differ between identical runs:\n%s\nvs\n%s", formatRaces(r1), formatRaces(r2))
	}
	if !reflect.DeepEqual(i1, i2) {
		t.Fatalf("instruction counts differ: %v vs %v", i1, i2)
	}
}

// TestDeadlockDetected: a two-thread lock-order inversion blocks both
// threads. The run ends with an error naming them and leaves no
// goroutine behind.
func TestDeadlockDetected(t *testing.T) {
	pl := New()
	a, b := pl.NewLock(), pl.NewLock()
	before := runtime.NumGoroutine()
	_, err := pl.RunCtx(context.Background(), 2, func(ctx exec.Ctx) {
		first, second := a, b
		if ctx.TID() == 1 {
			first, second = b, a
		}
		ctx.Lock(first)
		ctx.Compute(1)
		ctx.Lock(second)
		ctx.Unlock(second)
		ctx.Unlock(first)
	})
	if err == nil || !strings.Contains(err.Error(), "threads [0 1]") {
		t.Fatalf("err = %v, want a deadlock of threads 0 and 1", err)
	}
	deadline := time.Now().Add(5 * time.Second) // the threads' deferred exits
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d: the blocked threads leaked", before, after)
	}
}

// abortingRounds is a two-thread round loop canceled by thread 0 in
// round 1: each round a thread writes its own half of r, crosses bar,
// reads the other half and crosses bar again. The cross read is ordered
// only by a barrier generation that completed and joined; in the aborted
// run no Barrier may return, so it never runs unordered. returned counts
// the Barrier calls that returned after the cancel.
func abortingRounds(data []int32, r exec.Region, bar exec.Barrier, cancel func(), returned *atomic.Int32) func(exec.Ctx) {
	var canceled atomic.Bool
	return func(ctx exec.Ctx) {
		tid := ctx.TID()
		for round := 0; ; round++ {
			for i := tid * 4; i < tid*4+4; i++ {
				data[i] = int32(round)
				ctx.Store(r.At(i))
			}
			if tid == 0 && round == 1 {
				cancel()
				canceled.Store(true)
			}
			ctx.Barrier(bar)
			if canceled.Load() {
				returned.Add(1)
			}
			ctx.Load(r.At((1 - tid) * 4))
			_ = data[(1-tid)*4]
			ctx.Barrier(bar)
		}
	}
}

// TestBarrierAbortNoPhantomRaces cancels a round loop on the standalone
// scheduler. The barrier whose last arrival sees the cancellation ends
// both threads instead of returning, so no access runs unordered and the
// detector reports nothing.
func TestBarrierAbortNoPhantomRaces(t *testing.T) {
	pl := New()
	data := make([]int32, 8)
	r := pl.Alloc("abort.data", len(data), 4)
	bar := pl.NewBarrier(2)
	goCtx, cancel := context.WithCancel(context.Background())
	var returned atomic.Int32
	_, err := pl.RunCtx(goCtx, 2, abortingRounds(data, r, bar, cancel, &returned))
	if err != context.Canceled {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if n := returned.Load(); n != 0 {
		t.Fatalf("Barrier returned %d times after the cancel", n)
	}
	if races := pl.Races(); len(races) != 0 {
		t.Fatalf("aborted run reported phantom races:\n%s", formatRaces(races))
	}
}

// TestBarrierReuseAfterAbort: an abort ends the barrier's lone waiter
// (thread 1) and a thread arriving after it (thread 2), and the barrier,
// reused by the next run, still joins both parties — thread 1's read of
// thread 0's write is ordered only if it waited for thread 0. No
// goroutine outlives the runs.
func TestBarrierReuseAfterAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	pl := New()
	data := make([]int32, 1)
	r := pl.Alloc("reuse.data", 1, 4)
	bar := pl.NewBarrier(2)
	goCtx, cancel := context.WithCancel(context.Background())
	var arriving atomic.Bool
	_, err := pl.RunCtx(goCtx, 3, func(ctx exec.Ctx) {
		switch ctx.TID() {
		case 0:
			for !arriving.Load() {
				ctx.Compute(1) // yields to the standalone scheduler
				runtime.Gosched()
			}
			cancel()
			if ctx.Checkpoint() == nil {
				t.Error("Checkpoint missed the cancellation")
			}
			return
		case 1:
			arriving.Store(true)
		case 2:
			for ctx.Checkpoint() == nil {
				ctx.Compute(1)
			}
		}
		ctx.Barrier(bar)
		t.Errorf("Barrier returned to thread %d in an aborted run", ctx.TID())
	})
	if err != context.Canceled {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	pl.Run(2, func(ctx exec.Ctx) {
		if ctx.TID() == 0 {
			for i := 0; i < 8; i++ {
				ctx.Compute(1)
			}
			data[0] = 1
			ctx.Store(r.At(0))
			ctx.Barrier(bar)
			return
		}
		ctx.Barrier(bar)
		ctx.Load(r.At(0))
		if data[0] != 1 {
			t.Error("reused barrier released thread 1 alone")
		}
	})
	if races := pl.Races(); len(races) != 0 {
		t.Fatalf("reused barrier did not join:\n%s", formatRaces(races))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the runs, %d before", n, base)
	}
}

func TestStandaloneReportShape(t *testing.T) {
	pl := New()
	if pl.Name() != "racecheck" {
		t.Fatalf("Name() = %q", pl.Name())
	}
	r := pl.Alloc("shape.data", 8, 4)
	rep := pl.Run(3, func(ctx exec.Ctx) {
		ctx.Compute(2)
		ctx.Load(r.At(ctx.TID()))
	})
	if rep.Threads != 3 || len(rep.Instructions) != 3 {
		t.Fatalf("report shape: %+v", rep)
	}
	for t2, in := range rep.Instructions {
		if in != 3 {
			t.Fatalf("thread %d instructions = %d, want 3", t2, in)
		}
	}
}

func TestRaceString(t *testing.T) {
	r := Race{
		Location: "bfs.level[3]",
		Prior:    RaceAccess{TID: 0, Kind: "write", Site: "bfs.go:70"},
		Current:  RaceAccess{TID: 1, Kind: "read", Site: "bfs.go:80"},
	}
	want := "race on bfs.level[3]: read by T1 at bfs.go:80 unordered with write by T0 at bfs.go:70"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMaxRacesCap(t *testing.T) {
	pl := New()
	n := 4 * (defaultMaxRaces + 50)
	data := make([]int32, n)
	r := pl.Alloc("cap.data", n, 4)
	_, err := pl.RunCtx(context.Background(), 2, func(ctx exec.Ctx) {
		// Every element write-write races: distinct addresses, so dedup
		// does not collapse them and the cap must.
		for i := 0; i < n; i++ {
			data[i] = int32(ctx.TID())
			ctx.Store(r.At(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.Races()); got != defaultMaxRaces {
		t.Fatalf("recorded %d races, want cap %d", got, defaultMaxRaces)
	}
}
