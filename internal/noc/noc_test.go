package noc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, tiles int) *Mesh {
	t.Helper()
	m, err := New(tiles, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsNonSquare(t *testing.T) {
	for _, n := range []int{0, 2, 3, 5, 15, 255} {
		if _, err := New(n, 2, 64); err == nil {
			t.Errorf("tile count %d accepted", n)
		}
	}
	if _, err := New(16, 2, 0); err == nil {
		t.Error("zero flit width accepted")
	}
}

func TestTableIIMesh(t *testing.T) {
	m := mustMesh(t, 256)
	if m.Width != 16 || m.Height != 16 {
		t.Fatalf("mesh %dx%d, want 16x16", m.Width, m.Height)
	}
	if m.Diameter() != 30 {
		t.Fatalf("diameter %d, want 30", m.Diameter())
	}
}

func TestHopsManhattan(t *testing.T) {
	m := mustMesh(t, 16) // 4x4
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if m.Hops(c.b, c.a) != c.want {
			t.Errorf("Hops not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestFlits(t *testing.T) {
	m := mustMesh(t, 16)
	cases := map[int]int{1: 1, 64: 1, 65: 2, 128: 2, 576: 9, 0: 1}
	for bits, want := range cases {
		if got := m.Flits(bits); got != want {
			t.Errorf("Flits(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestTraverseUncontended(t *testing.T) {
	m := mustMesh(t, 16)
	arr, fh := m.Traverse(0, 5, 64, 100)
	// 2 hops at 2 cycles each.
	if arr != 104 {
		t.Fatalf("arrival %d, want 104", arr)
	}
	if fh != 2 { // 1 flit x 2 hops
		t.Fatalf("flit-hops %d, want 2", fh)
	}
}

func TestTraverseSelf(t *testing.T) {
	m := mustMesh(t, 16)
	arr, fh := m.Traverse(3, 3, 64, 42)
	if arr != 42 || fh != 0 {
		t.Fatalf("self traverse (%d, %d)", arr, fh)
	}
}

func TestTraverseMultiFlitPacket(t *testing.T) {
	m := mustMesh(t, 16)
	_, fh := m.Traverse(0, 1, 576, 0) // 9 flits, 1 hop
	if fh != 9 {
		t.Fatalf("flit-hops %d, want 9", fh)
	}
}

func TestLinkContentionQueues(t *testing.T) {
	m := mustMesh(t, 16)
	// Saturating traffic: 9-flit packets offered every 5 cycles over one
	// link (demand 1.8 flits/cycle > 1). The utilization model must
	// charge growing queueing delays.
	var lastDelay uint64
	for i := uint64(1); i <= 100; i++ {
		arr, _ := m.Traverse(0, 1, 576, i*5)
		lastDelay = arr - i*5 - m.HopCycles
	}
	if lastDelay == 0 {
		t.Fatal("saturated link charged no queueing")
	}
	if busy := m.links[0*4+dirEast].busy; busy != 900 {
		t.Fatalf("busy=%d, want 900 flit-cycles", busy)
	}
}

func TestLightTrafficQueuesLittle(t *testing.T) {
	m := mustMesh(t, 16)
	// 1-flit packets every 100 cycles: ~1% utilization, negligible
	// queueing relative to the hop latency.
	var total uint64
	for i := uint64(1); i <= 100; i++ {
		arr, _ := m.Traverse(0, 1, 64, i*100)
		total += arr - i*100 - m.HopCycles
	}
	if total > 100 {
		t.Fatalf("light traffic queued %d cycles total", total)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m := mustMesh(t, 16)
	a1, _ := m.Traverse(0, 1, 576, 0)
	a2, _ := m.Traverse(4, 5, 576, 0) // different row, disjoint links
	if a1 != a2 {
		t.Fatalf("disjoint paths interfered: %d vs %d", a1, a2)
	}
}

// TestTraverseLatencyBounds property: arrival time is at least
// start + hops*hopCycles and flit-hops = hops * flits.
func TestTraverseLatencyBounds(t *testing.T) {
	f := func(a, b uint8, bits uint16, start uint32) bool {
		m, err := New(64, 2, 64)
		if err != nil {
			return false
		}
		src, dst := int(a)%64, int(b)%64
		nbits := int(bits)%1024 + 1
		arr, fh := m.Traverse(src, dst, nbits, uint64(start))
		hops := m.Hops(src, dst)
		if fh != hops*m.Flits(nbits) {
			return false
		}
		return arr >= uint64(start)+uint64(hops)*m.HopCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	m := mustMesh(t, 256)
	if rt := m.RoundTrip(0, 255); rt != 2*30*2 {
		t.Fatalf("round trip %d, want 120", rt)
	}
}

func TestXYRoutingDeterministic(t *testing.T) {
	m := mustMesh(t, 16)
	// XY routing: 0 -> 5 goes east first (0->1), then south (1->5).
	next, dir := m.xyNext(0, 5)
	if next != 1 || dir != dirEast {
		t.Fatalf("first hop %d dir %d, want 1 east", next, dir)
	}
	next, dir = m.xyNext(1, 5)
	if next != 5 || dir != dirSouth {
		t.Fatalf("second hop %d dir %d, want 5 south", next, dir)
	}
	// Traverse reserves exactly those two links.
	m.Traverse(0, 5, 64, 0)
	for i := range m.links {
		want := uint64(0)
		if i == 0*4+dirEast || i == 1*4+dirSouth {
			want = 1
		}
		if got := m.links[i].busy; got != want {
			t.Fatalf("link %d reserved %d flit-cycles, want %d", i, got, want)
		}
	}
}

func TestRoutingPolicies(t *testing.T) {
	m := mustMesh(t, 16)
	if m.Routing() != RouteXY {
		t.Fatal("default routing not XY")
	}
	// YX routing: 0 -> 5 goes south first.
	m.SetRouting(RouteYX)
	next, dir := m.dimNext(0, 5, true)
	if next != 4 || dir != dirSouth {
		t.Fatalf("YX first hop %d dir %d, want 4 south", next, dir)
	}
	if RouteXY.String() != "XY" || RouteYX.String() != "YX" || RouteOblivious.String() != "oblivious" {
		t.Fatal("routing names wrong")
	}
}

func TestObliviousRoutingSpreadsTraffic(t *testing.T) {
	// Send many packets between the same corner pair: XY loads only the
	// row-0/column-3 links; oblivious loads both dimension orders.
	load := func(r Routing) uint64 {
		m := mustMesh(t, 16)
		m.SetRouting(r)
		for i := uint64(0); i < 200; i++ {
			m.Traverse(0, 15, 576, i*20)
		}
		var busiest uint64
		for _, l := range m.links {
			busiest = max(busiest, l.busy)
		}
		return busiest
	}
	xy := load(RouteXY)
	obl := load(RouteOblivious)
	if obl >= xy {
		t.Fatalf("oblivious busiest link %d not below XY %d", obl, xy)
	}
}

func TestRoutingStillReachesDestination(t *testing.T) {
	for _, r := range []Routing{RouteXY, RouteYX, RouteOblivious} {
		m := mustMesh(t, 64)
		m.SetRouting(r)
		for a := 0; a < 64; a += 7 {
			for b := 0; b < 64; b += 5 {
				arr, fh := m.Traverse(a, b, 64, 0)
				wantHops := m.Hops(a, b)
				if fh != wantHops {
					t.Fatalf("%v: %d->%d flit-hops %d, want %d", r, a, b, fh, wantHops)
				}
				if a != b && arr < uint64(wantHops)*m.HopCycles {
					t.Fatalf("%v: arrival too early", r)
				}
			}
		}
	}
}

// The reference model: Traverse, QueueDelay and dimNext exactly as this
// package shipped them before Traverse stepped coordinates per leg and
// QueueDelay gained its integer pre-test. The differential tests below
// drive both over the same packet streams; nothing else may call these.

func refQueueDelay(busy, horizon, service uint64) uint64 {
	if busy == 0 || horizon == 0 {
		return 0
	}
	rho := float64(busy) / float64(horizon)
	if rho > maxRho {
		rho = maxRho
	}
	return uint64(rho/(1-rho)*float64(service)/2 + 0.5)
}

func (m *Mesh) refTraverse(a, b int, bits int, start uint64) (arrival uint64, flitHops int) {
	if a == b {
		return start, 0
	}
	flits := uint64(m.Flits(bits))
	m.packets++
	pkt := m.packets
	yFirst := m.policy == RouteYX || (m.policy == RouteOblivious && pkt%2 == 1)
	t := start
	cur := a
	for cur != b {
		next, dir := m.dimNext(cur, b, yFirst)
		idx := cur*4 + dir
		lk := &m.links[idx]
		if t > lk.horizon {
			lk.horizon = t
		}
		t += refQueueDelay(lk.busy, lk.horizon, flits) + m.HopCycles
		lk.busy += flits
		flitHops += int(flits)
		cur = next
	}
	return t, flitHops
}

// dimNext returns the next tile and outgoing link direction under
// dimension-ordered routing (X first unless yFirst) from cur toward dst.
func (m *Mesh) dimNext(cur, dst int, yFirst bool) (next, dir int) {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if yFirst {
		switch {
		case cy < dy:
			return cur + m.Width, dirSouth
		case cy > dy:
			return cur - m.Width, dirNorth
		case cx < dx:
			return cur + 1, dirEast
		default:
			return cur - 1, dirWest
		}
	}
	switch {
	case cx < dx:
		return cur + 1, dirEast
	case cx > dx:
		return cur - 1, dirWest
	case cy < dy:
		return cur + m.Width, dirSouth
	default:
		return cur - m.Width, dirNorth
	}
}

// xyNext is dimNext with the default XY order.
func (m *Mesh) xyNext(cur, dst int) (next, dir int) { return m.dimNext(cur, dst, false) }

// TestTraverseMatchesReference is the bit-identity proof for Traverse:
// after every packet of a seeded random stream the two models agree on
// the arrival cycle, the flit-hops, and every link's reserved flit-cycles
// and horizon.
func TestTraverseMatchesReference(t *testing.T) {
	// Each clock yields the next packet's start cycle from the previous
	// one. "idle" spaces packets far apart, so nearly every link prices 0
	// through the pre-test; "saturated" offers several flits per cycle, so
	// links run at the rho cap on the float path; "skewed" jumps backwards
	// and forwards like lax-synchronized cores do.
	clocks := []struct {
		name string
		next func(rng *rand.Rand, prev uint64) uint64
	}{
		{"idle", func(rng *rand.Rand, prev uint64) uint64 { return prev + 200 + uint64(rng.Intn(2000)) }},
		{"saturated", func(rng *rand.Rand, prev uint64) uint64 { return prev + uint64(rng.Intn(2)) }},
		{"skewed", func(rng *rand.Rand, prev uint64) uint64 { return uint64(rng.Intn(50_000)) }},
	}
	const packets = 1500
	for _, tiles := range []int{16, 64, 256} {
		for _, policy := range []Routing{RouteXY, RouteYX, RouteOblivious} {
			for ci, clock := range clocks {
				t.Run(fmt.Sprintf("%d/%v/%s", tiles, policy, clock.name), func(t *testing.T) {
					got, want := mustMesh(t, tiles), mustMesh(t, tiles)
					got.SetRouting(policy)
					want.SetRouting(policy)
					rng := rand.New(rand.NewSource(int64(tiles*100 + int(policy)*10 + ci)))
					var start uint64
					sawQueueing := false
					for p := 0; p < packets; p++ {
						a, b := rng.Intn(tiles), rng.Intn(tiles)
						if clock.name == "saturated" && p%2 == 0 {
							b = 0 // funnel half the traffic into tile 0
						}
						bits := 1 + rng.Intn(1024)
						start = clock.next(rng, start)
						ga, gf := got.Traverse(a, b, bits, start)
						wa, wf := want.refTraverse(a, b, bits, start)
						if ga != wa || gf != wf {
							t.Fatalf("packet %d (%d->%d, %d bits, start %d): arrival/flit-hops (%d, %d), reference (%d, %d)",
								p, a, b, bits, start, ga, gf, wa, wf)
						}
						for i, w := range want.links {
							if g := got.links[i]; g != w {
								t.Fatalf("packet %d: link %d busy/horizon %v, reference %v", p, i, g, w)
							}
						}
						// Arrival past the uncontended hop latency is queueing.
						sawQueueing = sawQueueing || ga > start+uint64(got.Hops(a, b))*got.HopCycles
					}
					if clock.name == "saturated" && !sawQueueing {
						t.Fatal("the saturating clock never queued: the float path went untested")
					}
				})
			}
		}
	}
}

// TestQueueDelayMatchesReference sweeps the operands where the integer
// pre-test and the float path hand over: busy*(service+1) around the
// pre-test's threshold horizon - horizon>>zeroMarginBits, around horizon
// itself (where the formula first rounds up to one cycle) and around
// horizon/2, rho around the 0.95 cap, and magnitudes at which the
// pre-test's product needs more than 64 bits or the float conversions
// are inexact.
func TestQueueDelayMatchesReference(t *testing.T) {
	check := func(busy, horizon, service uint64) {
		t.Helper()
		if got, want := QueueDelay(busy, horizon, service), refQueueDelay(busy, horizon, service); got != want {
			t.Fatalf("QueueDelay(%d, %d, %d) = %d, reference %d", busy, horizon, service, got, want)
		}
	}
	// around checks the busy values that put busy*(service+1) within a few
	// counts of target.
	around := func(target, horizon, service uint64) {
		t.Helper()
		if service+1 == 0 {
			return
		}
		for d := int64(-2); d <= 2; d++ {
			check(uint64(int64(target/(service+1))+d), horizon, service)
		}
	}
	services := []uint64{0, 1, 2, 9, 13, 1 << 20, 1<<62 - 1, 1 << 62, math.MaxUint64 - 1, math.MaxUint64}
	horizons := []uint64{1, 2, 3, 7, 100, 1000, 12345, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<21 + 12345,
		1<<40 - 1, 1 << 40, 1<<40 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		horizons = append(horizons, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, h := range horizons {
		for _, s := range services {
			around(h-h>>zeroMarginBits, h, s)
			around(h, h, s)
			around(h/2, h, s)
			for d := int64(-2); d <= 2; d++ {
				// rho within a few counts of the cap: a step of one is below
				// one ulp of rho at the large sizes.
				check(uint64(int64(float64(h)*maxRho)+d), h, s)
				// Saturated and beyond, and the raw extremes.
				check(h+uint64(d), h, s)
				check(uint64(d), h, s)
				check(h, uint64(d), s)
			}
		}
	}
	// Dense small-operand sweep: every branch of the formula at sizes
	// where each cycle of delay is a visible step.
	for s := uint64(0); s <= 12; s++ {
		for h := uint64(0); h <= 300; h++ {
			for b := uint64(0); b <= 300; b++ {
				check(b, h, s)
			}
		}
	}
}

// FuzzQueueDelay: the pre-test never changes a result. The seed corpus
// runs under plain go test.
func FuzzQueueDelay(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(3), uint64(40), uint64(9))             // last busy the pre-test answers: 3*10 < 40
	f.Add(uint64(4), uint64(40), uint64(9))             // first one the formula rounds up to a cycle
	f.Add(uint64(1)<<30-1025, uint64(1)<<30, uint64(0)) // either side of horizon - horizon>>20
	f.Add(uint64(1)<<30-1024, uint64(1)<<30, uint64(0))
	f.Add(uint64(95), uint64(100), uint64(9)) // the rho cap
	f.Add(uint64(900), uint64(500), uint64(9))
	f.Add(uint64(1)<<63, uint64(1)<<63+1, uint64(1)<<20) // product overflows 64 bits
	f.Add(uint64(1)<<40, uint64(math.MaxUint64), uint64(1)<<20)
	f.Add(uint64(3), uint64(math.MaxUint64), uint64(1)<<62)
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, busy, horizon, service uint64) {
		if got, want := QueueDelay(busy, horizon, service), refQueueDelay(busy, horizon, service); got != want {
			t.Fatalf("QueueDelay(%d, %d, %d) = %d, reference %d", busy, horizon, service, got, want)
		}
	})
}

var benchSink uint64

// BenchmarkTraverse prices one packet crossing a Table II sized 8x8
// mesh: on an idle mesh every hop answers from QueueDelay's pre-test; in
// the saturated column every tile of column 0 sends data packets to tile
// 0 faster than the links drain, the float path lock traffic to the MCP
// takes.
func BenchmarkTraverse(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		m, _ := New(64, 2, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr, _ := m.Traverse(i%64, (i*29+7)%64, 64, uint64(i)*1000)
			benchSink += arr
		}
	})
	b.Run("saturated-column", func(b *testing.B) {
		m, _ := New(64, 2, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr, _ := m.Traverse((1+i%7)*8, 0, 576, uint64(i))
			benchSink += arr
		}
	})
}

// BenchmarkQueueDelay covers the formula's three regimes: the pre-test
// answering 0, the float path mid-range, and the float path at the cap.
func BenchmarkQueueDelay(b *testing.B) {
	for _, c := range []struct {
		name          string
		busy, horizon uint64
	}{
		{"zero", 10, 10_000},
		{"mid", 5_000, 10_000},
		{"capped", 20_000, 10_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			// Each call's operand hangs on the previous result, as a
			// packet's clock does from hop to hop.
			var d uint64
			for i := 0; i < b.N; i++ {
				d = QueueDelay(c.busy+d&1, c.horizon, 9)
			}
			benchSink += d
		})
	}
}
