// Package dram models the off-chip memory system of Table II: a set of
// memory controllers, each with 5 GB/s of bandwidth (finite-bandwidth
// queueing) and 100 ns access latency.
//
// Queueing uses the same utilization-based analytical model as the NoC
// (noc.QueueDelay): the controller tracks cumulative channel occupancy
// against the virtual-time horizon it has observed and charges
// rho/(1-rho) * service/2 per access. A strict next-free calendar would
// misbehave under lax-synchronization clock skew.
package dram

import (
	"fmt"

	"crono/internal/noc"
)

// Controller is one memory controller. It is not safe for concurrent
// use: the simulator runs one simulated thread at a time.
type Controller struct {
	// LatencyCycles is the DRAM access latency in core cycles.
	LatencyCycles uint64
	// CyclesPerByte is the inverse bandwidth in cycles (e.g. at 1 GHz,
	// 5 GB/s is 0.2 cycles per byte).
	CyclesPerByte float64

	busy    uint64 // cumulative channel occupancy
	horizon uint64 // latest virtual time observed
}

// New builds a controller from a clock (Hz), bandwidth (bytes/s) and
// latency (ns).
func New(clockHz, bytesPerSec float64, latencyNs float64) (*Controller, error) {
	if clockHz <= 0 || bytesPerSec <= 0 || latencyNs < 0 {
		return nil, fmt.Errorf("dram: bad parameters clock=%g bw=%g lat=%g", clockHz, bytesPerSec, latencyNs)
	}
	return &Controller{
		LatencyCycles: uint64(latencyNs * clockHz / 1e9),
		CyclesPerByte: clockHz / bytesPerSec,
	}, nil
}

// Access models a transfer of the given bytes starting at cycle start.
// It returns the completion cycle and the queueing delay charged for
// finite bandwidth.
func (c *Controller) Access(start uint64, bytes int) (done, queued uint64) {
	occupancy := uint64(float64(bytes)*c.CyclesPerByte + 0.5)
	if occupancy == 0 {
		occupancy = 1
	}
	// Raise the horizon, price the delay against the occupancy *before*
	// this transfer's reservation, then reserve.
	if start > c.horizon {
		c.horizon = start
	}
	queued = noc.QueueDelay(c.busy, c.horizon, occupancy)
	c.busy += occupancy
	return start + queued + occupancy + c.LatencyCycles, queued
}
