package exec

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegionAddressing(t *testing.T) {
	r := Region{Name: "x", Base: 128, ElemSize: 4, Elems: 10}
	if r.At(0) != 128 || r.At(3) != 140 {
		t.Fatalf("addresses %d/%d", r.At(0), r.At(3))
	}
	if r.Bytes() != 40 {
		t.Fatalf("bytes %d", r.Bytes())
	}
}

func TestRegionAtNegativePanics(t *testing.T) {
	r := Region{Name: "x", Base: 128, ElemSize: 4, Elems: 10}
	defer func() {
		if recover() == nil {
			t.Fatal("At(-1) did not panic; the uint64 wrap would address outside the region")
		}
	}()
	r.At(-1)
}

// TestRegionFitsInRegisters guards Region's size. The compiler keeps a
// struct in registers (SSA form) only while it has at most four fields
// of at most four pointer words in all; a Region past that is copied
// through the stack at every inlined At, on every edge of every kernel.
func TestRegionFitsInRegisters(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if size := unsafe.Sizeof(Region{}); size > 4*word {
		t.Errorf("Region is %d bytes, over the compiler's %d-byte register limit", size, 4*word)
	}
	if n := reflect.TypeOf(Region{}).NumField(); n > 4 {
		t.Errorf("Region has %d fields, over the compiler's 4-field register limit", n)
	}
}

// TestNewRegionRefusesWhatDoesNotFit: a size that the 32-bit fields
// cannot hold panics instead of truncating.
func TestNewRegionRefusesWhatDoesNotFit(t *testing.T) {
	if r := NewRegion("x", 128, 10, 4); r != (Region{Name: "x", Base: 128, ElemSize: 4, Elems: 10}) {
		t.Fatalf("NewRegion = %+v", r)
	}
	bad := [][2]int{{-1, 4}, {10, -1}}
	if strconv.IntSize == 64 {
		big := int(uint64(math.MaxUint32) + 1)
		bad = append(bad, [2]int{big, 1}, [2]int{1, big})
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRegion(%d elements, %d bytes) did not panic", c[0], c[1])
				}
			}()
			NewRegion("x", 128, c[0], c[1])
		}()
	}
}

func TestBreakdownTotalAndFractions(t *testing.T) {
	var b Breakdown
	b[CompCompute] = 50
	b[CompSync] = 50
	if b.Total() != 100 {
		t.Fatalf("total %d", b.Total())
	}
	f := b.Fractions()
	if f[CompCompute] != 0.5 || f[CompSync] != 0.5 || f[CompL1ToL2] != 0 {
		t.Fatalf("fractions %v", f)
	}
	var zero Breakdown
	if zero.Fractions() != [NumComponents]float64{} {
		t.Fatal("zero breakdown fractions not zero")
	}
	b.Add(b)
	if b.Total() != 200 {
		t.Fatalf("after add %d", b.Total())
	}
}

// Property: fractions always sum to ~1 for non-empty breakdowns.
func TestFractionsSumToOne(t *testing.T) {
	f := func(a, b, c, d, e, g uint32) bool {
		bd := Breakdown{uint64(a), uint64(b), uint64(c), uint64(d), uint64(e), uint64(g)}
		if bd.Total() == 0 {
			return true
		}
		var sum float64
		for _, v := range bd.Fractions() {
			sum += v
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComponentAndMissClassNames(t *testing.T) {
	want := map[BreakdownComponent]string{
		CompCompute: "Compute",
		CompL1ToL2:  "L1Cache-L2Home",
		CompWaiting: "L2Home-Waiting",
		CompSharers: "L2Home-Sharers",
		CompOffChip: "L2Home-OffChip",
		CompSync:    "Synchronization",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d = %q, want %q", c, c.String(), s)
		}
	}
	if MissCold.String() != "Cold" || MissCapacity.String() != "Capacity" || MissSharing.String() != "Sharing" {
		t.Fatal("miss class names wrong")
	}
	if EnergyRouter.String() != "Network Router" || EnergyDRAM.String() != "DRAM" {
		t.Fatal("energy component names wrong")
	}
}

func TestCacheStatsRates(t *testing.T) {
	s := CacheStats{L1DAccesses: 200, L2Accesses: 40, L2Misses: 4}
	s.L1DMisses[MissCold] = 10
	s.L1DMisses[MissCapacity] = 20
	s.L1DMisses[MissSharing] = 10
	if s.L1MissRate() != 20 {
		t.Fatalf("miss rate %g", s.L1MissRate())
	}
	by := s.L1MissRateByClass()
	if by[MissCold] != 5 || by[MissCapacity] != 10 || by[MissSharing] != 5 {
		t.Fatalf("by class %v", by)
	}
	if s.HierarchyMissRate() != 2 {
		t.Fatalf("hierarchy %g", s.HierarchyMissRate())
	}
	var empty CacheStats
	if empty.L1MissRate() != 0 || empty.HierarchyMissRate() != 0 {
		t.Fatal("empty stats not zero")
	}
	if empty.L1MissRateByClass() != [NumMissClasses]float64{} {
		t.Fatal("zero-access per-class rates not zero")
	}
	// Misses recorded against zero accesses (a malformed report) must
	// still not divide by zero.
	malformed := CacheStats{L2Misses: 7}
	malformed.L1DMisses[MissSharing] = 3
	if malformed.L1MissRate() != 0 || malformed.HierarchyMissRate() != 0 {
		t.Fatal("zero-access rates not guarded")
	}
	if malformed.L1MissRateByClass() != [NumMissClasses]float64{} {
		t.Fatal("zero-access per-class rates not guarded")
	}
}

func TestReportVariability(t *testing.T) {
	r := &Report{Instructions: []uint64{100, 50, 75}}
	if v := r.Variability(); v != 0.5 {
		t.Fatalf("variability %g, want 0.5", v)
	}
	r = &Report{Instructions: []uint64{80, 80}}
	if v := r.Variability(); v != 0 {
		t.Fatalf("balanced variability %g", v)
	}
	r = &Report{}
	if r.Variability() != 0 {
		t.Fatal("empty variability")
	}
	r = &Report{Instructions: []uint64{0, 0}}
	if r.Variability() != 0 {
		t.Fatal("zero-instruction variability")
	}
	r = &Report{Instructions: []uint64{42}}
	if r.Variability() != 0 {
		t.Fatal("single-thread variability should be zero")
	}
	r = &Report{Instructions: []uint64{3, 4, 5}}
	if r.TotalInstructions() != 12 {
		t.Fatalf("total %d", r.TotalInstructions())
	}
}

func TestEnergyBreakdownTotals(t *testing.T) {
	var e EnergyBreakdown
	e[EnergyL1D] = 30
	e[EnergyRouter] = 70
	if e.Total() != 100 {
		t.Fatalf("total %g", e.Total())
	}
	f := e.Fractions()
	if f[EnergyRouter] != 0.7 {
		t.Fatalf("router fraction %g", f[EnergyRouter])
	}
}
