package exec

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSchedUnlockByNonHolder: releasing a lock another thread holds fails
// the run, which still ends every thread.
func TestSchedUnlockByNonHolder(t *testing.T) {
	before := runtime.NumGoroutine()
	l := &SchedLock{}
	b := NewSchedBarrier(2)
	seats := []*Seat{{}, {}}
	err := NewSched("test", context.Background(), RoundRobin, 0).Run(seats, func(tid int) {
		st := seats[tid]
		if tid == 0 {
			st.Acquire(l, 0)
			st.Arrive(b, 0) // never released: the run aborts
			t.Error("Arrive returned in an aborted run")
			return
		}
		st.Release(l)
		t.Error("Release returned to a thread that does not hold the lock")
	})
	if err == nil || !strings.Contains(err.Error(), "test: T1 unlocks a lock it does not hold") {
		t.Fatalf("err = %v, want T1's unlock refused", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}
