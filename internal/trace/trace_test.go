package trace

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/sim"
)

func simFor(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.Default()
	cfg.Cores = 16
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRecordReplayMatchesDirectSimulation: a replay issues exactly the
// instructions its recording saw, and lands on the totals of running
// the kernel directly on the simulator. With one thread all three
// counts are equal. With four, the recording and the direct run are two
// different schedules of scan BFS, whose racy-read-then-locked-recheck
// costs Lock+Load+Unlock per lost claim: the direct count may differ
// from the recorded one by three instructions per lost claim, and each
// vertex lock is lost at most once by each thread but the winner.
func TestRecordReplayMatchesDirectSimulation(t *testing.T) {
	g := graph.UniformSparse(300, 4, 30, 5)
	for _, threads := range []int{1, 4} {
		rec := NewRecorder()
		natRes, err := core.BFS(context.Background(), rec, g, 0, threads)
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		if tr.Ops() == 0 || tr.Locks == 0 || len(tr.Barriers) == 0 {
			t.Fatalf("trace incomplete: ops=%d locks=%d barriers=%d", tr.Ops(), tr.Locks, len(tr.Barriers))
		}

		replayRep, err := Replay(simFor(t), tr)
		if err != nil {
			t.Fatal(err)
		}
		directRes, err := core.BFS(context.Background(), simFor(t), g, 0, threads)
		if err != nil {
			t.Fatal(err)
		}

		if replayRep.TotalInstructions() != natRes.Report.TotalInstructions() {
			t.Fatalf("%d threads: replay instructions %d != recorded %d",
				threads, replayRep.TotalInstructions(), natRes.Report.TotalInstructions())
		}
		diff := int64(directRes.Report.TotalInstructions()) - int64(replayRep.TotalInstructions())
		slack := int64(3 * (threads - 1) * tr.Locks)
		if diff%3 != 0 || diff > slack || -diff > slack {
			t.Fatalf("%d threads: replay instructions %d vs direct sim %d: difference %d is not a whole number of lost claims within %d",
				threads, replayRep.TotalInstructions(), directRes.Report.TotalInstructions(), diff, slack)
		}
		if threads == 1 && replayRep.Cache.L1DAccesses != directRes.Report.Cache.L1DAccesses {
			t.Fatalf("replay accesses %d != direct %d",
				replayRep.Cache.L1DAccesses, directRes.Report.Cache.L1DAccesses)
		}
		// Timing is lax, but replay should land in the same ballpark.
		lo, hi := directRes.Report.Time/2, directRes.Report.Time*2
		if replayRep.Time < lo || replayRep.Time > hi {
			t.Fatalf("%d threads: replay time %d outside [%d,%d]", threads, replayRep.Time, lo, hi)
		}
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	g := graph.UniformSparse(120, 3, 20, 9)
	rec := NewRecorder()
	if _, err := core.SSSP(context.Background(), rec, g, 0, 3); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ops() != tr.Ops() || back.Locks != tr.Locks || len(back.Barriers) != len(tr.Barriers) {
		t.Fatalf("round trip mismatch: %d/%d ops, %d/%d locks",
			back.Ops(), tr.Ops(), back.Locks, tr.Locks)
	}
	if len(back.Regions) != len(tr.Regions) || back.Regions[0].Name != tr.Regions[0].Name {
		t.Fatal("regions lost")
	}
	for tid := range tr.Threads {
		if len(back.Threads[tid]) != len(tr.Threads[tid]) {
			t.Fatalf("thread %d stream length changed", tid)
		}
		for i := range tr.Threads[tid] {
			if back.Threads[tid][i] != tr.Threads[tid][i] {
				t.Fatalf("thread %d record %d changed", tid, i)
			}
		}
	}
}

func TestReadRejectsCorruptTraces(t *testing.T) {
	cases := []string{
		"",
		"NOTTRACE",
		magic, // header only
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Bad op code.
	g := graph.UniformSparse(40, 2, 10, 1)
	rec := NewRecorder()
	if _, err := core.BFS(context.Background(), rec, g, 0, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-17] = 99 // clobber an op byte
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("corrupt op accepted")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	if _, err := Replay(simFor(t), &Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRecorderAgainstAllKernels(t *testing.T) {
	g := graph.UniformSparse(150, 3, 20, 11)
	in := core.Input{
		G:      g,
		D:      graph.DenseFromCSR(graph.UniformSparse(32, 3, 10, 12)),
		Cities: graph.Cities(6, 13),
		Source: 0,
	}
	for _, b := range core.Suite() {
		rec := NewRecorder()
		if _, err := b.Run(context.Background(), rec, core.Request{Input: in, Threads: 3}); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		tr := rec.Trace()
		if tr.Ops() == 0 {
			t.Fatalf("%s: empty trace", b.Name)
		}
		rep, err := Replay(simFor(t), tr)
		if err != nil {
			t.Fatalf("%s replay: %v", b.Name, err)
		}
		if rep.Time == 0 {
			t.Fatalf("%s: replay produced no time", b.Name)
		}
	}
}

var _ exec.Platform = (*Recorder)(nil)
