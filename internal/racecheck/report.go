// Package racecheck implements an annotation-level happens-before race
// detector for the exec.Ctx API.
//
// The detector observes the same annotation stream the simulator times:
// Load/Store (and their Atomic and Span forms) build per-address access
// history, Lock/Unlock maintain per-lock release clocks, and Barrier
// joins and redistributes the participants' vector clocks. Two accesses
// to the same address conflict when at least one is a write; a conflict
// is a race when neither access happens-before the other — FastTrack
// style, adapted to the annotation API (see DESIGN.md, "Happens-before
// model of the annotation API").
//
// Atomic annotations are synchronization: a pair of conflicting atomic
// accesses is never a race (Go guarantees sequentially consistent
// atomics), and atomic operations on an address carry acquire/release
// edges through that address's synchronization clock. A conflicting
// unordered pair where only one side is atomic is still a race.
//
// New returns the package's one platform, a deterministic checker: the
// simulator's baton scheduler (exec.Sched) runs one thread at a time
// under its round-robin rule, yielding at every annotation, so a given
// kernel, input and thread count always produce the same interleaving
// and the same report.
package racecheck

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"

	"crono/internal/exec"
)

// RaceAccess describes one side of a racing pair.
type RaceAccess struct {
	// TID is the annotating thread.
	TID int `json:"tid"`
	// Kind is "read", "write", "atomic read" or "atomic write".
	Kind string `json:"kind"`
	// Site is the annotation call site as "file.go:line".
	Site string `json:"site"`
}

// Race is one detected conflicting, happens-before-unordered access pair.
type Race struct {
	// Location names the accessed datum as "region[elem]" via the
	// platform's region table, falling back to the raw hex address for
	// memory no registered region owns.
	Location string `json:"location"`
	// Prior is the earlier access of the pair in detector observation
	// order.
	Prior RaceAccess `json:"prior"`
	// Current is the later access.
	Current RaceAccess `json:"current"`
}

// String formats the race the way crono-race prints it.
func (r Race) String() string {
	return fmt.Sprintf("race on %s: %s by T%d at %s unordered with %s by T%d at %s",
		r.Location,
		r.Current.Kind, r.Current.TID, r.Current.Site,
		r.Prior.Kind, r.Prior.TID, r.Prior.Site)
}

// accessRec is the detector's internal record of one access.
type accessRec struct {
	tid    int
	clock  uint64
	pc     uintptr
	atomic bool
	write  bool
}

func (a accessRec) kind() string {
	switch {
	case a.atomic && a.write:
		return "atomic write"
	case a.atomic:
		return "atomic read"
	case a.write:
		return "write"
	}
	return "read"
}

// site resolves a captured program counter to "file.go:line". Only the
// base name is kept so reports are stable across checkouts.
func site(pc uintptr) string {
	if pc == 0 {
		return "?"
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	f, _ := frames.Next()
	if f.File == "" {
		return "?"
	}
	return fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
}

// rawRace is a race before site resolution.
type rawRace struct {
	addr           exec.Addr
	prior, current accessRec
}

// raceKey dedups races: one report per distinct (datum, site pair,
// access kinds), so a racy loop body yields one line, not one per
// iteration.
type raceKey struct {
	addr                     exec.Addr
	priorPC, currentPC       uintptr
	priorWrite, currentWrite bool
}

// resolveRaces formats raw races against a region table, deduplicating
// and sorting for byte-stable output.
func resolveRaces(raw []rawRace, table *exec.RegionTable) []Race {
	out := make([]Race, 0, len(raw))
	for _, rr := range raw {
		out = append(out, Race{
			Location: table.Describe(rr.addr),
			Prior: RaceAccess{
				TID:  rr.prior.tid,
				Kind: rr.prior.kind(),
				Site: site(rr.prior.pc),
			},
			Current: RaceAccess{
				TID:  rr.current.tid,
				Kind: rr.current.kind(),
				Site: site(rr.current.pc),
			},
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Location != b.Location {
			return a.Location < b.Location
		}
		if a.Current.Site != b.Current.Site {
			return a.Current.Site < b.Current.Site
		}
		if a.Prior.Site != b.Prior.Site {
			return a.Prior.Site < b.Prior.Site
		}
		if a.Current.Kind != b.Current.Kind {
			return a.Current.Kind < b.Current.Kind
		}
		return a.Prior.Kind < b.Prior.Kind
	})
	return out
}
