package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, k, cores int) *Dir {
	t.Helper()
	d, err := New(k, cores)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("cores=0 accepted")
	}
}

func TestFirstReadGrantsExclusive(t *testing.T) {
	d := mustNew(t, 4, 16)
	act := d.Read(10, 3)
	if act.FetchFrom != -1 || len(act.Invalidate) != 0 || act.Broadcast {
		t.Fatalf("unexpected traffic on idle read: %+v", act)
	}
	if d.Owner(10) != 3 {
		t.Fatalf("owner %d, want 3", d.Owner(10))
	}
	if d.Sharers(10) != 1 {
		t.Fatalf("sharers %d, want 1", d.Sharers(10))
	}
}

func TestSecondReadDowngradesOwner(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 3)
	act := d.Read(10, 5)
	if act.FetchFrom != 3 {
		t.Fatalf("fetch from %d, want 3", act.FetchFrom)
	}
	if act.Dirty {
		t.Fatal("clean exclusive reported dirty")
	}
	if d.Owner(10) != -1 || d.Sharers(10) != 2 {
		t.Fatalf("owner %d sharers %d after downgrade", d.Owner(10), d.Sharers(10))
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 0)
	d.Read(10, 1)
	d.Read(10, 2)
	act := d.Write(10, 3)
	if act.Broadcast {
		t.Fatal("broadcast below pointer limit")
	}
	if len(act.Invalidate) != 3 {
		t.Fatalf("invalidate %v, want 3 cores", act.Invalidate)
	}
	if d.Owner(10) != 3 || d.Sharers(10) != 1 {
		t.Fatalf("post-write owner %d sharers %d", d.Owner(10), d.Sharers(10))
	}
}

func TestWriterDoesNotInvalidateItself(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 0)
	d.Read(10, 1)
	act := d.Write(10, 1) // upgrade by a sharer
	for _, c := range act.Invalidate {
		if c == 1 {
			t.Fatal("writer in its own invalidation list")
		}
	}
	if len(act.Invalidate) != 1 || act.Invalidate[0] != 0 {
		t.Fatalf("invalidate %v, want [0]", act.Invalidate)
	}
}

func TestDirtyOwnerFlushesOnRead(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Write(10, 2)
	act := d.Read(10, 7)
	if act.FetchFrom != 2 || !act.Dirty {
		t.Fatalf("expected dirty flush from 2, got %+v", act)
	}
}

func TestRepeatWriteByOwnerIsSilent(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Write(10, 2)
	act := d.Write(10, 2)
	if act.FetchFrom != -1 || len(act.Invalidate) != 0 || act.Broadcast {
		t.Fatalf("owner rewrite caused traffic: %+v", act)
	}
}

func TestACKWiseOverflowBroadcasts(t *testing.T) {
	d := mustNew(t, 4, 64)
	for c := 0; c < 10; c++ {
		d.Read(10, c)
	}
	if d.Sharers(10) != 10 {
		t.Fatalf("sharer count %d, want 10 (exact counting)", d.Sharers(10))
	}
	act := d.Write(10, 63)
	if !act.Broadcast {
		t.Fatal("no broadcast after pointer overflow")
	}
	if act.AckCount != 10 {
		t.Fatalf("ack count %d, want 10", act.AckCount)
	}
}

func TestEvictRemovesSharer(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 0)
	d.Read(10, 1)
	d.Evict(10, 0)
	if d.Sharers(10) != 1 {
		t.Fatalf("sharers %d after evict, want 1", d.Sharers(10))
	}
	act := d.Write(10, 5)
	if len(act.Invalidate) != 1 || act.Invalidate[0] != 1 {
		t.Fatalf("invalidate %v, want [1]", act.Invalidate)
	}
}

func TestEvictOwnerIdlesLine(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Write(10, 2)
	d.Evict(10, 2)
	if d.Owner(10) != -1 || d.Sharers(10) != 0 {
		t.Fatalf("owner %d sharers %d after owner evict", d.Owner(10), d.Sharers(10))
	}
}

func TestDropLineReturnsHolders(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 0)
	d.Read(10, 1)
	cores, broadcast := d.DropLine(10)
	if broadcast || len(cores) != 2 {
		t.Fatalf("drop returned %v broadcast=%v", cores, broadcast)
	}
	if d.Entries() != 0 {
		t.Fatalf("%d entries after drop", d.Entries())
	}
	// The dropped slot, its page neighbours and lines on pages never used
	// all read as idle lines: a first read is granted exclusive.
	for _, line := range []uint64{10, 11, 1 << 20} {
		if d.Owner(line) != -1 || d.Sharers(line) != 0 {
			t.Fatalf("line %d: owner %d sharers %d before any request", line, d.Owner(line), d.Sharers(line))
		}
		if act := d.Read(line, 5); act.FetchFrom != -1 || d.Owner(line) != 5 {
			t.Fatalf("line %d: first read fetched from %d, owner %d", line, act.FetchFrom, d.Owner(line))
		}
	}
	if d.Entries() != 3 {
		t.Fatalf("%d entries after three first reads", d.Entries())
	}
}

func TestRemoteReadFlushesDirtyOwner(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Write(10, 2)
	act := d.RemoteRead(10)
	if act.FetchFrom != 2 || !act.Dirty {
		t.Fatalf("remote read: %+v", act)
	}
	// Owner keeps a shared copy.
	if d.Sharers(10) != 1 || d.Owner(10) != -1 {
		t.Fatalf("owner %d sharers %d", d.Owner(10), d.Sharers(10))
	}
}

func TestRemoteWriteInvalidatesEveryone(t *testing.T) {
	d := mustNew(t, 4, 16)
	d.Read(10, 0)
	d.Read(10, 1)
	act := d.RemoteWrite(10)
	if len(act.Invalidate) != 2 {
		t.Fatalf("remote write invalidated %v", act.Invalidate)
	}
	if d.Sharers(10) != 0 {
		t.Fatalf("sharers %d after remote write", d.Sharers(10))
	}
}

// TestSharerCountStaysExact property: under random reads/writes/evicts,
// the directory count matches a full-map reference simulation.
func TestSharerCountStaysExact(t *testing.T) {
	f := func(seed int64) bool {
		d, err := New(4, 16)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		// Reference: full-map holder set; owner is one holder at most.
		holders := make(map[int]bool)
		for i := 0; i < 300; i++ {
			core := rng.Intn(16)
			switch rng.Intn(3) {
			case 0:
				// Contract: holders hit in their L1 and never issue
				// directory reads.
				if !holders[core] {
					d.Read(1, core)
					holders[core] = true
				}
			case 1:
				d.Write(1, core)
				holders = map[int]bool{core: true}
			case 2:
				// Only evict genuinely tracked holders, as the machine does.
				if holders[core] {
					d.Evict(1, core)
					delete(holders, core)
				}
			}
			if d.Sharers(1) != len(holders) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
