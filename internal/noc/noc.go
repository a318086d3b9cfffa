// Package noc models the on-chip interconnect of Table II: an electrical
// 2-D mesh with XY dimension-ordered routing, a 2-cycle hop latency
// (1 router + 1 link), 64-bit flits, infinite input buffers and link
// contention only.
//
// Contention is modeled analytically, as in Graphite: each link tracks
// its cumulative utilization (reserved flit-cycles over the virtual-time
// horizon it has seen) and charges an M/D/1-style queueing delay
// rho/(1-rho) * service/2 per traversal. The model is insensitive to the
// order in which threads with skewed lax-synchronization clocks present
// their packets — a strict per-link reservation calendar would let a
// virtual-time front-runner block laggards that are arriving "in its
// past" and serialize the whole machine.
//
// # The integer pre-test of QueueDelay
//
// QueueDelay is called once per hop of every packet, and most hops cross
// a nearly idle link where the formula rounds to 0. Those calls are
// answered by an integer comparison that cannot change a result. With
// d = busy*(service+1) and h = horizon, x = rho/(1-rho)*service/2 is
// below 1/2 exactly when d < h, and the float path returns
// uint64(x + 0.5). The pre-test returns 0 only when d < h - h>>20, that
// is d/h < 1 - 2^-20, which puts the exact x below (1 - 2^-20)/2. The
// float path reaches x through two conversions, two divisions, a
// subtraction and a multiplication (halving is exact), each within one
// part in 2^53 of its exact result, so what it computes stays below
// 1/2 - 2^-22, the sum with 0.5 below 1, and the conversion yields 0:
// the margin is over 2^28 times the accumulated rounding error. rho is
// below 1/2 there, so the cap does not apply. A product d that does not
// fit 64 bits skips the pre-test. Every other call takes the float
// path, with the operation order it always had.
package noc

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// maxRho caps the utilization used in the queueing formula so a saturated
// link models a deep (but finite) queue.
const maxRho = 0.95

// zeroMarginBits is the margin of QueueDelay's integer pre-test: it
// answers 0 only when busy*(service+1) is more than 2^-zeroMarginBits of
// the horizon short of the point where the formula starts rounding up to
// one cycle (see the package comment).
const zeroMarginBits = 20

// Routing selects the dimension-ordered routing policy.
type Routing int

const (
	// RouteXY is deterministic X-then-Y routing (Table II default).
	RouteXY Routing = iota
	// RouteYX is deterministic Y-then-X routing.
	RouteYX
	// RouteOblivious picks XY or YX per packet (O1TURN-style), spreading
	// traffic over both dimension orders — the contention-reduction
	// technique the paper's Section VII-B points to.
	RouteOblivious
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RouteYX:
		return "YX"
	case RouteOblivious:
		return "oblivious"
	}
	return "XY"
}

// Mesh is a W x H mesh of tiles. Traverse is safe for concurrent use:
// per-link utilization state is kept in atomics, so simulated cores on
// different host threads inject packets without any shared lock. The
// utilization model was already insensitive to packet presentation order
// (see the package comment), which is what makes lock-free accumulation
// semantically equivalent to the old serialized updates. SetRouting is
// configuration-time only.
type Mesh struct {
	// Width and Height are the mesh dimensions.
	Width, Height int
	// HopCycles is the per-hop latency in cycles (router + link).
	HopCycles uint64
	// FlitBits is the link width.
	FlitBits int

	// linkBusy[tile*4+dir] accumulates reserved flit-cycles on the
	// directed link out of tile in direction dir; linkHorizon is the
	// latest virtual time the link has observed.
	linkBusy    []atomic.Uint64
	linkHorizon []atomic.Uint64
	queued      atomic.Uint64 // total queueing delay charged (DebugStats)
	policy      Routing
	packets     atomic.Uint64 // packets routed under RouteOblivious, which alternates on it
}

// Directions of mesh links.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New builds a mesh for the given tile count, which must be a perfect
// square (the paper's 256-core target is a 16x16 mesh).
func New(tiles int, hopCycles uint64, flitBits int) (*Mesh, error) {
	w := intSqrt(tiles)
	if w*w != tiles || tiles == 0 {
		return nil, fmt.Errorf("noc: tile count %d is not a positive square", tiles)
	}
	if flitBits <= 0 {
		return nil, fmt.Errorf("noc: flit width %d", flitBits)
	}
	return &Mesh{
		Width:       w,
		Height:      w,
		HopCycles:   hopCycles,
		FlitBits:    flitBits,
		linkBusy:    make([]atomic.Uint64, tiles*4),
		linkHorizon: make([]atomic.Uint64, tiles*4),
	}, nil
}

// MaxTo atomically raises *a to at least v and returns the resulting
// value, max(previous, v) — the lock-free equivalent of the horizon
// updates the utilization models perform ("if t > horizon { horizon = t }"
// followed by a read). Exported for the sibling analytical models that
// share the same horizon discipline (dram, the simulator's MCP).
func MaxTo(a *atomic.Uint64, v uint64) uint64 {
	for {
		old := a.Load()
		if v <= old {
			return old
		}
		if a.CompareAndSwap(old, v) {
			return v
		}
	}
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// SetRouting selects the routing policy (default RouteXY).
func (m *Mesh) SetRouting(r Routing) { m.policy = r }

// Routing returns the active routing policy.
func (m *Mesh) Routing() Routing { return m.policy }

// XY returns the mesh coordinates of tile t.
func (m *Mesh) XY(t int) (x, y int) { return t % m.Width, t / m.Width }

// Hops returns the Manhattan distance between tiles a and b.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := m.XY(a)
	bx, by := m.XY(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Diameter returns the largest hop count on the mesh.
func (m *Mesh) Diameter() int { return m.Width - 1 + m.Height - 1 }

// Flits returns the number of flits needed for a payload of bits.
func (m *Mesh) Flits(bits int) int {
	f := (bits + m.FlitBits - 1) / m.FlitBits
	if f < 1 {
		f = 1
	}
	return f
}

// QueueDelay returns the utilization-based queueing estimate for a
// resource with the given cumulative busy time, observation horizon and
// per-request service time: rho/(1-rho) * service/2, with rho capped.
//
// Calls that price a nearly idle resource, which is most of them, are
// answered 0 by an integer pre-test; the package comment shows why it
// cannot disagree with the float path.
func QueueDelay(busy, horizon, service uint64) uint64 {
	if busy == 0 || horizon == 0 {
		return 0
	}
	if hi, demand := bits.Mul64(busy, service+1); hi == 0 && service+1 != 0 && demand < horizon-horizon>>zeroMarginBits {
		return 0
	}
	rho := float64(busy) / float64(horizon)
	if rho > maxRho {
		rho = maxRho
	}
	return uint64(rho/(1-rho)*float64(service)/2 + 0.5)
}

// Traverse sends a packet of the given bits from tile a to tile b
// starting at cycle start, following the routing policy and charging a
// utilization-based queueing delay on every traversed link. It returns
// the head-arrival cycle at b and the number of flit-hops consumed (for
// router/link energy accounting).
func (m *Mesh) Traverse(a, b int, bits int, start uint64) (arrival uint64, flitHops int) {
	if a == b {
		return start, 0
	}
	flits := uint64(m.Flits(bits))
	yFirst := m.policy == RouteYX
	if m.policy == RouteOblivious {
		yFirst = m.packets.Add(1)%2 == 1
	}
	// A dimension-ordered route is two straight legs, so the coordinates
	// are worked out once and each hop is an add on the tile index.
	w := m.Width
	dx, dy := b%w-a%w, b/w-a/w
	x := leg{hops: dx, step: 1, dir: dirEast}
	if dx < 0 {
		x = leg{hops: -dx, step: -1, dir: dirWest}
	}
	y := leg{hops: dy, step: w, dir: dirSouth}
	if dy < 0 {
		y = leg{hops: -dy, step: -w, dir: dirNorth}
	}
	first, second := x, y
	if yFirst {
		first, second = y, x
	}
	t := start
	cur := a
	var queued uint64
	for n, l := 0, first; n < 2; n, l = n+1, second {
		for i := 0; i < l.hops; i++ {
			idx := cur*4 + l.dir
			// Same arithmetic as the serialized model: raise the horizon,
			// price the queueing delay against the utilization *before* this
			// packet's reservation, then reserve. Add returns the post-add
			// value, so subtracting flits recovers the pre-reservation busy.
			horizon := MaxTo(&m.linkHorizon[idx], t)
			busy := m.linkBusy[idx].Add(flits) - flits
			wait := QueueDelay(busy, horizon, flits)
			queued += wait
			t += wait + m.HopCycles
			cur += l.step
		}
	}
	if queued != 0 {
		m.queued.Add(queued)
	}
	return t, (x.hops + y.hops) * int(flits)
}

// leg is one straight run of a dimension-ordered route: hops links, each
// leaving its tile in direction dir and advancing the tile index by step.
type leg struct{ hops, step, dir int }

// RoundTrip is the uncontended round-trip latency between tiles a and b
// (used for invalidation estimates): two traversals at hop latency.
func (m *Mesh) RoundTrip(a, b int) uint64 {
	return 2 * uint64(m.Hops(a, b)) * m.HopCycles
}

// DebugStats reports aggregate contention counters: the total queueing
// delay charged, the busiest link's reserved flit-cycles, and that link's
// index (tile*4 + direction).
func (m *Mesh) DebugStats() (queuedCycles uint64, busiestBusy uint64, busiest int) {
	for i := range m.linkBusy {
		if v := m.linkBusy[i].Load(); v > busiestBusy {
			busiestBusy = v
			busiest = i
		}
	}
	return m.queued.Load(), busiestBusy, busiest
}
