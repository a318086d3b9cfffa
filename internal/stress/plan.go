package stress

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Fault identifiers stamped on planned ops. The empty string means a
// normal, unfaulted request.
const (
	FaultCancel    = "cancel"
	FaultDeadline  = "deadline"
	FaultSlowBody  = "slowbody"
	FaultOversize  = "oversize"
	FaultBadJSON   = "badjson"
	FaultDupUpload = "dupupload"
)

// Op is one planned request: everything the client needs to execute it,
// fixed at planning time so the schedule is replayable.
type Op struct {
	// Seq is the op's index within its user's sequence.
	Seq int `json:"seq"`
	// AtMs is the planned start offset from phase start for open-loop and
	// burst arrivals; -1 means closed-loop (start after the previous op
	// plus ThinkMs).
	AtMs    float64 `json:"atMs"`
	ThinkMs float64 `json:"thinkMs,omitempty"`
	Fault   string  `json:"fault,omitempty"`

	// Request template (resolved mix entry + drawn source).
	Kernel    string `json:"kernel"`
	Graph     string `json:"graph,omitempty"` // scenario handle
	Platform  string `json:"platform"`
	Strategy  string `json:"strategy"`
	Threads   int    `json:"threads"`
	Source    int    `json:"source"`
	Iters     int    `json:"iters,omitempty"`
	MaxPasses int    `json:"maxPasses,omitempty"` // omitempty keeps older schedules' digests
	SimCores  int    `json:"simCores,omitempty"`
	Cities    int    `json:"cities,omitempty"`
	TimeoutMs int    `json:"timeoutMs"`

	// Fault parameters (drawn at planning time).
	CancelAfterMs float64 `json:"cancelAfterMs,omitempty"`
	SlowBodyMs    float64 `json:"slowBodyMs,omitempty"`
	OversizeBytes int     `json:"oversizeBytes,omitempty"`
	// DupSeed parametrizes the racing duplicate upload; drawn from a
	// small set so chaos runs cannot flood the graph store.
	DupSeed int64 `json:"dupSeed,omitempty"`

	// Patch op fields (set when the mix entry carried a PatchSpec): the
	// client PATCHes the graph with PatchInserts+PatchDeletes edges drawn
	// deterministically from PatchSeed. All omitempty so pre-patch
	// schedules keep their digests.
	PatchInserts int    `json:"patchInserts,omitempty"`
	PatchDeletes int    `json:"patchDeletes,omitempty"`
	PatchSeed    uint64 `json:"patchSeed,omitempty"`
}

// IsPatch reports whether the op is a graph mutation rather than a run.
func (op *Op) IsPatch() bool { return op.PatchInserts+op.PatchDeletes > 0 }

// UserPlan is one virtual user's op sequence.
type UserPlan struct {
	User int  `json:"user"`
	Ops  []Op `json:"ops"`
}

// PhasePlan is the planned schedule of one phase.
type PhasePlan struct {
	Name       string     `json:"name"`
	DurationMs int        `json:"durationMs,omitempty"`
	Users      []UserPlan `json:"users"`
}

// Schedule is the fully materialized request schedule of a scenario:
// a pure function of (scenario, seed).
type Schedule struct {
	Scenario string      `json:"scenario"`
	Seed     uint64      `json:"seed"`
	Digest   string      `json:"digest"` // FNV-1a over the canonical phase JSON
	Phases   []PhasePlan `json:"phases"`
}

// Ops returns the total planned request count.
func (s *Schedule) Ops() int {
	n := 0
	for _, p := range s.Phases {
		for _, u := range p.Users {
			n += len(u.Ops)
		}
	}
	return n
}

// Plan materializes the deterministic schedule for a validated scenario.
// Every draw comes from a stream derived as (seed, phase, user), so user
// schedules are independent of fleet execution order and of each other.
func Plan(sc *Scenario) (*Schedule, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sched := &Schedule{Scenario: sc.Name, Seed: sc.Seed}
	for pi := range sc.Phases {
		p := &sc.Phases[pi]
		pp := PhasePlan{Name: p.Name, DurationMs: p.DurationMs}
		base, rem := p.Requests/p.Users, p.Requests%p.Users
		var totalWeight float64
		for _, m := range p.Mix {
			totalWeight += m.Weight
		}
		for u := 0; u < p.Users; u++ {
			st := newStream(sc.Seed, uint64(pi), uint64(u))
			nops := base
			if u < rem {
				nops++
			}
			up := UserPlan{User: u, Ops: make([]Op, 0, nops)}
			var clockMs float64 // open-loop cumulative offset
			for i := 0; i < nops; i++ {
				op := Op{Seq: i, AtMs: -1}
				// Arrival.
				switch p.Arrival.Pattern {
				case "closed":
					op.ThinkMs = st.rangeF(p.Arrival.ThinkMsMin, p.Arrival.ThinkMsMax)
				case "poisson":
					// Aggregate fleet rate split per user keeps the
					// scenario-facing knob intuitive.
					clockMs += st.expMs(p.Arrival.RatePerSec / float64(p.Users))
					op.AtMs = clockMs
				case "burst":
					op.AtMs = float64(i) * p.Arrival.BurstIntervalMs
				}
				// Mix entry.
				m := &p.Mix[0]
				w := st.float64() * totalWeight
				for j := range p.Mix {
					w -= p.Mix[j].Weight
					if w < 0 {
						m = &p.Mix[j]
						break
					}
				}
				op.Kernel, op.Graph = m.Kernel, m.Graph
				op.Platform, op.Strategy = m.Platform, m.Strategy
				op.Threads, op.TimeoutMs = m.Threads, m.TimeoutMs
				op.Iters, op.MaxPasses, op.SimCores, op.Cities = m.Iters, m.MaxPasses, m.SimCores, m.Cities
				op.Source = st.intn(m.Sources)
				if m.Patch != nil {
					op.PatchInserts, op.PatchDeletes = m.Patch.Inserts, m.Patch.Deletes
					// |1 keeps the seed nonzero: the client seeds a
					// splitmix64 stream directly from it. The extra draw
					// only happens for patch entries, so pre-patch
					// schedules are byte-identical.
					op.PatchSeed = st.next() | 1
				}
				// Fault draw: one cumulative-probability walk per op.
				f := &p.Faults
				r := st.float64()
				for _, fr := range []struct {
					name string
					rate float64
				}{
					{FaultCancel, f.CancelRate}, {FaultDeadline, f.DeadlineRate},
					{FaultSlowBody, f.SlowBodyRate}, {FaultOversize, f.OversizeRate},
					{FaultBadJSON, f.BadJSONRate}, {FaultDupUpload, f.DupUploadRate},
				} {
					r -= fr.rate
					if r < 0 {
						op.Fault = fr.name
						break
					}
				}
				switch op.Fault {
				case FaultCancel:
					op.CancelAfterMs = st.rangeF(f.CancelAfterMsMin, f.CancelAfterMsMax)
				case FaultDeadline:
					op.TimeoutMs = f.DeadlineMs
				case FaultSlowBody:
					op.SlowBodyMs = f.SlowBodyMs
				case FaultOversize:
					op.OversizeBytes = f.OversizeBytes
				case FaultDupUpload:
					op.DupSeed = int64(st.intn(4)) + 1
				}
				up.Ops = append(up.Ops, op)
			}
			pp.Users = append(pp.Users, up)
		}
		sched.Phases = append(sched.Phases, pp)
	}
	b, err := json.Marshal(sched.Phases)
	if err != nil {
		return nil, fmt.Errorf("stress: digest schedule: %w", err)
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv never errors
	sched.Digest = fmt.Sprintf("%016x", h.Sum64())
	return sched, nil
}
