package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, size, ways, line int) *Cache {
	t.Helper()
	c, err := New(size, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := [][3]int{{0, 4, 64}, {1024, 0, 64}, {1024, 4, 0}, {100, 4, 64}, {3 * 64 * 4, 4, 64}}
	for _, c := range cases {
		if _, err := New(c[0], c[1], c[2]); err == nil {
			t.Errorf("geometry %v accepted", c)
		}
	}
}

func TestTableIIGeometries(t *testing.T) {
	l1 := mustNew(t, 32<<10, 4, 64)
	if l1.Sets() != 128 || l1.Ways() != 4 {
		t.Fatalf("L1 geometry %d sets x %d ways", l1.Sets(), l1.Ways())
	}
	l2 := mustNew(t, 256<<10, 8, 64)
	if l2.Sets() != 512 || l2.Ways() != 8 {
		t.Fatalf("L2 geometry %d sets x %d ways", l2.Sets(), l2.Ways())
	}
}

func TestInsertLookupInvalidate(t *testing.T) {
	c := mustNew(t, 1024, 2, 64) // 8 sets x 2 ways
	if st := c.Lookup(5); st != Invalid {
		t.Fatalf("empty cache hit with state %v", st)
	}
	if _, ev := c.Insert(5, Shared); ev {
		t.Fatal("eviction from empty set")
	}
	if st := c.Lookup(5); st != Shared {
		t.Fatalf("state %v, want S", st)
	}
	c.SetState(5, Modified)
	if st := c.Peek(5); st != Modified {
		t.Fatalf("state %v after SetState, want M", st)
	}
	if st := c.Invalidate(5); st != Modified {
		t.Fatalf("Invalidate returned %v", st)
	}
	if st := c.Lookup(5); st != Invalid {
		t.Fatal("line survived invalidation")
	}
	if st := c.Invalidate(5); st != Invalid {
		t.Fatalf("double invalidate returned %v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, 2*64, 2, 64) // 1 set x 2 ways
	c.Insert(0, Shared)
	c.Insert(1, Shared)
	c.Lookup(0) // 0 now MRU
	v, ev := c.Insert(2, Shared)
	if !ev || v.Line != 1 {
		t.Fatalf("evicted %+v (%v), want line 1", v, ev)
	}
	if c.Peek(0) == Invalid || c.Peek(2) == Invalid {
		t.Fatal("resident lines lost")
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	c.Insert(7, Shared)
	if _, ev := c.Insert(7, Modified); ev {
		t.Fatal("re-insert evicted")
	}
	if st := c.Peek(7); st != Modified {
		t.Fatalf("state %v, want M", st)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy %d, want 1", c.Occupancy())
	}
}

func TestSetIsolation(t *testing.T) {
	c := mustNew(t, 1024, 2, 64) // 8 sets
	// Lines 0 and 8 map to set 0; line 1 maps to set 1.
	c.Insert(0, Shared)
	c.Insert(8, Shared)
	c.Insert(1, Shared)
	if _, ev := c.Insert(16, Shared); !ev {
		t.Fatal("set 0 should overflow")
	}
	if c.Peek(1) == Invalid {
		t.Fatal("set 1 affected by set 0 eviction")
	}
}

// TestOccupancyNeverExceedsCapacity is a property test: any access
// sequence keeps occupancy within capacity and eviction reports exact.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		c, err := New(1<<10, 4, 64) // 16 lines capacity
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		resident := make(map[uint64]bool)
		for range ops {
			line := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				v, ev := c.Insert(line, Shared)
				if ev {
					if !resident[v.Line] {
						return false // evicted a non-resident line
					}
					delete(resident, v.Line)
				}
				resident[line] = true
			case 1:
				got := c.Lookup(line) != Invalid
				if got != resident[line] {
					return false
				}
			case 2:
				c.Invalidate(line)
				delete(resident, line)
			}
			if c.Occupancy() > 16 || c.Occupancy() != len(resident) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}

// TestUntouchedSetsAllocateNothing: a tag array allocates its ways on
// first Insert, a page of sets at a time. Reads and state changes of
// lines in untouched sets see Invalid and allocate nothing, and an Insert
// allocates only the page holding its set.
func TestUntouchedSetsAllocateNothing(t *testing.T) {
	c, err := New(256<<10, 8, 64) // Table II L2 slice: 512 sets
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		for line := uint64(0); line < 4096; line += 7 {
			if c.Lookup(line) != Invalid || c.Peek(line) != Invalid || c.Invalidate(line) != Invalid {
				t.Fatalf("untouched line %d reads valid", line)
			}
			c.SetState(line, Modified)
		}
	}); n != 0 {
		t.Fatalf("reads of untouched sets allocate %v times", n)
	}
	c.Insert(3, Exclusive)
	touched := 0
	for _, p := range c.pages {
		if p != nil {
			touched++
		}
	}
	if touched != 1 || c.Occupancy() != 1 || c.Peek(3) != Exclusive {
		t.Fatalf("after one insert: %d pages, occupancy %d, state %v", touched, c.Occupancy(), c.Peek(3))
	}
}
