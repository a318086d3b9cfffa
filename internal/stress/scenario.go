// Package stress is the scenario-driven load & chaos harness for the
// CRONO serving layer. A scenario is a declarative JSON file describing a
// client fleet (virtual users with a weighted kernel/graph/strategy mix
// and an arrival pattern), a fault plan (mid-run cancels, deadline storms,
// slow-reader bodies, oversized uploads, malformed JSON, duplicate-upload
// races), a request budget, and assertions evaluated from scraped /metrics
// plus harness-side observations.
//
// The harness layers:
//
//	scenario loader/validator  (scenario.go)
//	deterministic planner      (plan.go, rand.go)   seed → full schedule
//	fault-injecting client     (client.go)
//	/metrics text parser       (metrics.go)
//	assertion engine           (assert.go)
//	runner + report artifact   (runner.go, report.go, inprocess.go)
//
// Determinism contract: the same seed and scenario produce the identical
// request schedule and fault-injection sequence (Schedule.Digest pins it).
// Wall-clock outcomes — latencies, which requests shed — still vary run to
// run; only the *planned* sequence is reproducible, which is what makes a
// chaos failure replayable.
package stress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"crono/internal/core"
	"crono/internal/graph"
)

// Scenario is the root of a scenario file.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random draw in the schedule; same seed, same
	// schedule.
	Seed uint64 `json:"seed"`
	// Server overrides the in-process server configuration; ignored (with
	// a warning) when the harness targets a remote instance.
	Server *ServerConfig `json:"server,omitempty"`
	// Graphs are created once at setup; mix entries reference them by
	// handle.
	Graphs   []GraphSpec `json:"graphs,omitempty"`
	Defaults Defaults    `json:"defaults,omitempty"`
	// Phases execute sequentially; each gets its own fleet, mix, arrival
	// pattern and fault plan, and its own latency histogram in the report.
	Phases     []Phase    `json:"phases"`
	Assertions Assertions `json:"assertions,omitempty"`
}

// ServerConfig tunes the in-process server a scenario runs against.
// Chaos scenarios typically shrink the pool/queue to force shedding and
// tighten the read deadline so slow-reader faults trip it.
type ServerConfig struct {
	Workers        int   `json:"workers,omitempty"`
	Queue          int   `json:"queue,omitempty"`
	CacheEntries   int   `json:"cacheEntries,omitempty"`
	MaxGraphs      int   `json:"maxGraphs,omitempty"`
	MaxBodyBytes   int64 `json:"maxBodyBytes,omitempty"`
	ReadTimeoutMs  int   `json:"readTimeoutMs,omitempty"`
	WriteTimeoutMs int   `json:"writeTimeoutMs,omitempty"`
	IdleTimeoutMs  int   `json:"idleTimeoutMs,omitempty"`
}

// GraphSpec declares one generated input graph.
type GraphSpec struct {
	// Handle is the scenario-local name mix entries reference.
	Handle string `json:"handle"`
	Kind   string `json:"kind"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
}

// Defaults fills unset per-mix-entry request fields.
type Defaults struct {
	Platform  string `json:"platform,omitempty"`  // "native"
	Strategy  string `json:"strategy,omitempty"`  // "frontier"
	Threads   int    `json:"threads,omitempty"`   // 4
	TimeoutMs int    `json:"timeoutMs,omitempty"` // 10000
}

// Phase is one stage of a scenario: a fleet of Users virtual users
// issuing Requests total requests under one arrival pattern and fault
// plan.
type Phase struct {
	Name  string `json:"name"`
	Users int    `json:"users"`
	// Requests is the phase's total request budget, split evenly across
	// users (earlier users take the remainder).
	Requests int `json:"requests"`
	// DurationMs caps the phase's wall-clock execution; unexecuted ops
	// are skipped (the planned schedule is unchanged). 0 = no cap.
	DurationMs int        `json:"durationMs,omitempty"`
	Arrival    Arrival    `json:"arrival"`
	Mix        []MixEntry `json:"mix"`
	Faults     FaultPlan  `json:"faults,omitempty"`
}

// Arrival selects how a user's requests are spaced.
//
//   - "closed": closed-loop — the next request starts after the previous
//     completes, plus a think time drawn from [thinkMsMin, thinkMsMax].
//   - "poisson": open-loop — request start offsets follow a Poisson
//     process of ratePerSec (aggregate across the fleet); a user that
//     falls behind fires immediately rather than re-synchronizing.
//   - "burst": all users fire wave k simultaneously at k*burstIntervalMs.
type Arrival struct {
	Pattern         string  `json:"pattern"`
	ThinkMsMin      float64 `json:"thinkMsMin,omitempty"`
	ThinkMsMax      float64 `json:"thinkMsMax,omitempty"`
	RatePerSec      float64 `json:"ratePerSec,omitempty"`
	BurstIntervalMs float64 `json:"burstIntervalMs,omitempty"`
}

// MixEntry is one weighted request template: a kernel run, or — when
// Patch is set — a graph mutation.
type MixEntry struct {
	Weight   float64 `json:"weight"`
	Kernel   string  `json:"kernel,omitempty"`
	Graph    string  `json:"graph,omitempty"` // handle; unused by TSP
	Platform string  `json:"platform,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	// Sources is the number of distinct start vertices drawn (vertex ids
	// [0, sources)); 1 keeps every request cache-identical, a large value
	// defeats the cache.
	Sources   int `json:"sources,omitempty"`
	Iters     int `json:"iters,omitempty"`
	SimCores  int `json:"simCores,omitempty"`
	Cities    int `json:"cities,omitempty"` // TSP only
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Patch turns this entry into a PATCH /v1/graphs/{id} mutation of its
	// graph handle instead of a kernel run (edge-churn scenarios).
	Patch *PatchSpec `json:"patch,omitempty"`
}

// PatchSpec sizes a mix entry's edge mutations. Each planned op draws
// that many deterministic insert/delete edges from the op's patch seed,
// so the mutation stream replays with the schedule.
type PatchSpec struct {
	Inserts int `json:"inserts,omitempty"`
	Deletes int `json:"deletes,omitempty"`
}

// FaultPlan gives per-request probabilities of each chaos injection. At
// most one fault applies per request; rates must sum to <= 1.
type FaultPlan struct {
	// CancelRate cancels the client context after a delay drawn from
	// [cancelAfterMsMin, cancelAfterMsMax] — the mid-run cancel path.
	CancelRate       float64 `json:"cancelRate,omitempty"`
	CancelAfterMsMin float64 `json:"cancelAfterMsMin,omitempty"`
	CancelAfterMsMax float64 `json:"cancelAfterMsMax,omitempty"`
	// DeadlineRate sends the request with a tiny timeoutMs (deadline
	// storm); the server answers 504 once the kernel deadlines.
	DeadlineRate float64 `json:"deadlineRate,omitempty"`
	DeadlineMs   int     `json:"deadlineMs,omitempty"` // default 1
	// SlowBodyRate trickles the request body over slowBodyMs, which a
	// hardened server's read deadline must defeat.
	SlowBodyRate float64 `json:"slowBodyRate,omitempty"`
	SlowBodyMs   float64 `json:"slowBodyMs,omitempty"` // default 1000
	// OversizeRate uploads oversizeBytes of graph data (expects 413).
	OversizeRate  float64 `json:"oversizeRate,omitempty"`
	OversizeBytes int     `json:"oversizeBytes,omitempty"` // default 2 MiB
	// BadJSONRate sends a truncated JSON body (expects 400).
	BadJSONRate float64 `json:"badJSONRate,omitempty"`
	// DupUploadRate races two identical graph uploads and verifies both
	// land on the same content-addressed ID (store-dedup post-condition).
	DupUploadRate float64 `json:"dupUploadRate,omitempty"`
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes a scenario strictly (unknown fields are errors: a typoed
// fault key silently doing nothing would be a false green) and validates.
func Parse(b []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	sc.normalize()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// normalize fills defaults so the planner and client see complete values.
func (sc *Scenario) normalize() {
	if sc.Defaults.Platform == "" {
		sc.Defaults.Platform = "native"
	}
	if sc.Defaults.Strategy == "" {
		sc.Defaults.Strategy = string(core.StrategyFrontier)
	}
	if sc.Defaults.Threads == 0 {
		sc.Defaults.Threads = 4
	}
	if sc.Defaults.TimeoutMs == 0 {
		sc.Defaults.TimeoutMs = 10000
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		f := &p.Faults
		if f.DeadlineMs == 0 {
			f.DeadlineMs = 1
		}
		if f.SlowBodyMs == 0 {
			f.SlowBodyMs = 1000
		}
		if f.OversizeBytes == 0 {
			f.OversizeBytes = 2 << 20
		}
		if f.CancelAfterMsMax < f.CancelAfterMsMin {
			f.CancelAfterMsMax = f.CancelAfterMsMin
		}
		for j := range p.Mix {
			m := &p.Mix[j]
			if m.Platform == "" {
				m.Platform = sc.Defaults.Platform
			}
			if m.Strategy == "" {
				m.Strategy = sc.Defaults.Strategy
			}
			if m.Threads == 0 {
				m.Threads = sc.Defaults.Threads
			}
			if m.TimeoutMs == 0 {
				m.TimeoutMs = sc.Defaults.TimeoutMs
			}
			if m.Sources == 0 {
				m.Sources = 1
			}
		}
	}
}

// Validate checks the scenario for structural errors: unknown kernels,
// graph kinds, arrival patterns, dangling graph handles, bad rates.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %s: at least one phase is required", sc.Name)
	}
	handles := make(map[string]*GraphSpec, len(sc.Graphs))
	for i := range sc.Graphs {
		g := &sc.Graphs[i]
		if g.Handle == "" {
			return fmt.Errorf("scenario %s: graphs[%d]: handle is required", sc.Name, i)
		}
		if _, dup := handles[g.Handle]; dup {
			return fmt.Errorf("scenario %s: duplicate graph handle %q", sc.Name, g.Handle)
		}
		known := false
		for _, k := range graph.Kinds {
			if graph.Kind(g.Kind) == k {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("scenario %s: graph %q: unknown kind %q", sc.Name, g.Handle, g.Kind)
		}
		if g.N < 2 {
			return fmt.Errorf("scenario %s: graph %q: n %d < 2", sc.Name, g.Handle, g.N)
		}
		handles[g.Handle] = g
	}
	for pi := range sc.Phases {
		p := &sc.Phases[pi]
		where := fmt.Sprintf("scenario %s: phase %q", sc.Name, p.Name)
		if p.Name == "" {
			return fmt.Errorf("scenario %s: phases[%d]: name is required", sc.Name, pi)
		}
		if p.Users < 1 {
			return fmt.Errorf("%s: users %d < 1", where, p.Users)
		}
		if p.Requests < 1 {
			return fmt.Errorf("%s: requests %d < 1", where, p.Requests)
		}
		switch p.Arrival.Pattern {
		case "closed":
			if p.Arrival.ThinkMsMax < p.Arrival.ThinkMsMin || p.Arrival.ThinkMsMin < 0 {
				return fmt.Errorf("%s: think time range [%v, %v] invalid",
					where, p.Arrival.ThinkMsMin, p.Arrival.ThinkMsMax)
			}
		case "poisson":
			if p.Arrival.RatePerSec <= 0 {
				return fmt.Errorf("%s: poisson arrival needs ratePerSec > 0", where)
			}
		case "burst":
			if p.Arrival.BurstIntervalMs <= 0 {
				return fmt.Errorf("%s: burst arrival needs burstIntervalMs > 0", where)
			}
		default:
			return fmt.Errorf("%s: unknown arrival pattern %q (want closed, poisson or burst)",
				where, p.Arrival.Pattern)
		}
		if len(p.Mix) == 0 {
			return fmt.Errorf("%s: mix is empty", where)
		}
		for mi := range p.Mix {
			m := &p.Mix[mi]
			if m.Weight <= 0 {
				return fmt.Errorf("%s: mix[%d]: weight %v <= 0", where, mi, m.Weight)
			}
			if m.Patch != nil {
				if m.Kernel != "" {
					return fmt.Errorf("%s: mix[%d]: a patch entry cannot also name kernel %q", where, mi, m.Kernel)
				}
				if m.Patch.Inserts < 0 || m.Patch.Deletes < 0 || m.Patch.Inserts+m.Patch.Deletes < 1 {
					return fmt.Errorf("%s: mix[%d]: patch needs inserts+deletes >= 1, got %d+%d",
						where, mi, m.Patch.Inserts, m.Patch.Deletes)
				}
				g, ok := handles[m.Graph]
				if !ok {
					return fmt.Errorf("%s: mix[%d]: graph handle %q not declared", where, mi, m.Graph)
				}
				// The client draws distinct non-loop pairs; a batch anywhere
				// near N² pairs could spin forever.
				if m.Patch.Inserts+m.Patch.Deletes > g.N {
					return fmt.Errorf("%s: mix[%d]: patch batch %d exceeds graph %q's %d vertices",
						where, mi, m.Patch.Inserts+m.Patch.Deletes, m.Graph, g.N)
				}
				continue
			}
			bench, err := core.ByName(m.Kernel)
			if err != nil {
				return fmt.Errorf("%s: mix[%d]: %v", where, mi, err)
			}
			if bench.UsesCities {
				if m.Cities < 3 || m.Cities > 20 {
					return fmt.Errorf("%s: mix[%d]: %s needs cities in [3, 20], got %d",
						where, mi, m.Kernel, m.Cities)
				}
			} else {
				g, ok := handles[m.Graph]
				if !ok {
					return fmt.Errorf("%s: mix[%d]: graph handle %q not declared", where, mi, m.Graph)
				}
				if m.Sources > g.N {
					return fmt.Errorf("%s: mix[%d]: sources %d exceed graph %q's %d vertices",
						where, mi, m.Sources, m.Graph, g.N)
				}
			}
			if m.Platform != "native" && m.Platform != "sim" {
				return fmt.Errorf("%s: mix[%d]: unknown platform %q", where, mi, m.Platform)
			}
			if !core.Strategy(m.Strategy).Valid() {
				return fmt.Errorf("%s: mix[%d]: unknown strategy %q", where, mi, m.Strategy)
			}
		}
		f := &p.Faults
		rates := []struct {
			name string
			v    float64
		}{
			{"cancelRate", f.CancelRate}, {"deadlineRate", f.DeadlineRate},
			{"slowBodyRate", f.SlowBodyRate}, {"oversizeRate", f.OversizeRate},
			{"badJSONRate", f.BadJSONRate}, {"dupUploadRate", f.DupUploadRate},
		}
		var sum float64
		for _, r := range rates {
			if r.v < 0 || r.v > 1 {
				return fmt.Errorf("%s: %s %v outside [0, 1]", where, r.name, r.v)
			}
			sum += r.v
		}
		if sum > 1 {
			return fmt.Errorf("%s: fault rates sum to %v > 1", where, sum)
		}
	}
	if err := sc.Assertions.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return nil
}

// ScaleBudget proportionally rescales every phase's request budget so the
// scenario totals at most maxRequests (each phase keeps at least one
// request). CI smoke jobs use it to run checked-in scenarios cheaply; the
// scaled scenario plans its own deterministic schedule.
func (sc *Scenario) ScaleBudget(maxRequests int) {
	if maxRequests <= 0 {
		return
	}
	total := 0
	for i := range sc.Phases {
		total += sc.Phases[i].Requests
	}
	if total <= maxRequests {
		return
	}
	for i := range sc.Phases {
		p := &sc.Phases[i]
		p.Requests = p.Requests * maxRequests / total
		if p.Requests < 1 {
			p.Requests = 1
		}
	}
}
