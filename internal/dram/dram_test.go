package dram

import (
	"testing"
	"testing/quick"
)

func tableII(t *testing.T) *Controller {
	t.Helper()
	c, err := New(1e9, 5e9, 100)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, p := range [][3]float64{{0, 5e9, 100}, {1e9, 0, 100}, {1e9, 5e9, -1}} {
		if _, err := New(p[0], p[1], p[2]); err == nil {
			t.Errorf("params %v accepted", p)
		}
	}
}

func TestTableIIParameters(t *testing.T) {
	c := tableII(t)
	if c.LatencyCycles != 100 {
		t.Fatalf("latency %d cycles, want 100", c.LatencyCycles)
	}
	// 5 GB/s at 1 GHz = 0.2 cycles/byte.
	if c.CyclesPerByte < 0.19 || c.CyclesPerByte > 0.21 {
		t.Fatalf("cycles/byte %g, want 0.2", c.CyclesPerByte)
	}
}

func TestUncontendedAccess(t *testing.T) {
	c := tableII(t)
	done, queued := c.Access(1000, 64)
	if queued != 0 {
		t.Fatalf("queued %d on idle controller", queued)
	}
	// 64 bytes * 0.2 cy/B = 13 (rounded) + 100 latency.
	if done != 1000+13+100 {
		t.Fatalf("done %d, want 1113", done)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	c := tableII(t)
	// 64-byte transfers offered every 5 cycles demand 13/5 = 2.6x the
	// channel bandwidth: the utilization model must charge queueing.
	var lastQueued uint64
	for i := uint64(1); i <= 100; i++ {
		_, q := c.Access(i*5, 64)
		lastQueued = q
	}
	if lastQueued == 0 {
		t.Fatal("saturated controller charged no queueing")
	}
	if u := float64(c.busy) / float64(c.horizon); u < 0.9 {
		t.Fatalf("utilization %g under saturating load", u)
	}
}

func TestIdleGapDilutesQueueing(t *testing.T) {
	c := tableII(t)
	for i := uint64(1); i <= 50; i++ {
		c.Access(i*5, 64)
	}
	_, saturated := c.Access(51*5, 64)
	// A long idle gap dilutes utilization and with it the charged delay.
	_, afterGap := c.Access(1_000_000, 64)
	if afterGap >= saturated {
		t.Fatalf("queueing after idle gap (%d) not below saturated (%d)", afterGap, saturated)
	}
}

// Property: completion is monotone in start time and never earlier than
// start + latency.
func TestAccessMonotone(t *testing.T) {
	f := func(starts []uint32) bool {
		c, err := New(1e9, 5e9, 100)
		if err != nil {
			return false
		}
		var prevDone uint64
		var prevStart uint64
		for i, s := range starts {
			start := prevStart + uint64(s)%1000
			prevStart = start
			done, queued := c.Access(start, 64)
			if done < start+c.LatencyCycles {
				return false
			}
			if i > 0 && done <= prevDone-c.LatencyCycles {
				return false
			}
			_ = queued
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
