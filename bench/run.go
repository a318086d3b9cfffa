package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sizes fixes every count of the workloads at one scale, so that a pass
// is the same op sequence on every run of a seed.
type sizes struct {
	kernelSocialN, kernelRoadN int
	simN                       int
	readRoadN, readSocialN     int
	churnRoadN, churnSocialN   int
	// reqsPerClient is the length of each client's request sequence in
	// one serve-read pass; churnCycles the PATCH cycles of one
	// serve-churn pass; pairedRuns the direct kernel runs a traced run
	// pairs with each service class.
	reqsPerClient, churnCycles, pairedRuns int
	// rounds splits the measured time of the time-filled workloads: each
	// round sets everything up again, which gives set-up time several
	// samples per run and spreads the measurement over several heap
	// layouts.
	rounds int
	// maxPasses caps the passes of a run (0 = until the time is up).
	maxPasses int
}

// scales names the two calibrations. "full" is what BENCHMARK.json
// measures; "smoke" is the same code at a size a unit test can afford.
var scales = map[string]sizes{
	"full": {
		kernelSocialN: 32768, kernelRoadN: 131072,
		simN:      2048,
		readRoadN: 65536, readSocialN: 16384,
		churnRoadN: 32768, churnSocialN: 8192,
		reqsPerClient: 64, churnCycles: 40, pairedRuns: 16,
		rounds: 3,
	},
	"smoke": {
		kernelSocialN: 2048, kernelRoadN: 4096,
		simN:      256,
		readRoadN: 4096, readSocialN: 1024,
		churnRoadN: 2048, churnSocialN: 1024,
		reqsPerClient: 16, churnCycles: 3, pairedRuns: 2,
		rounds: 1, maxPasses: 2,
	},
}

// workload is one round of one workload: a fresh instance is built for
// every round.
type workload interface {
	// setup does everything that precedes the measured phase: graph
	// generation, uploads, reorders and one warm-up pass whose every op
	// gets the full problem-level check.
	setup() error
	// pass runs the workload's fixed, seeded op sequence once. i counts
	// passes over the whole run, so successive passes draw new sources.
	pass(i int)
	// passesPerRound is how many passes one set-up serves; 0 means as
	// many as fit in the round's share of the measured time.
	passesPerRound() int
	// extras runs what only a traced run pays for: paired direct kernel
	// calls, /metrics deltas and allocation counts.
	extras()
	close()
}

// span is one call into a layer's public surface, as the traced run
// records it. Spans of one op share Op; Units is the work the call did
// (edges, events) where a per-unit cost is derived from it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Units   int64  `json:"units,omitempty"`
}

// run collects what one benchmark run measures. Ops report to it from
// up to P goroutines.
type run struct {
	opts  options
	sz    sizes
	p     int // load width: kernel threads, server workers, HTTP clients
	epoch time.Time

	// tracing changes only between passes, while no op is in flight:
	// spans and per-layer observations are recorded.
	tracing bool
	// calibrated is set by a workload whose passes run on one host
	// processor; see calibrate.
	calibrated bool

	ids atomic.Int64

	mu        sync.Mutex
	spans     []span
	attempted int
	failed    int
	failures  []string
	// layer holds the per-layer observations of the traced run; pass is
	// the measured pass in progress (nil during set-up, warm-up and
	// extras), passes the finished ones.
	layer  map[string][]float64
	pass   *passData
	passes []*passData
}

// measuring reports whether ops count toward the end-to-end metrics.
func (r *run) measuring() bool { return r.pass != nil }

// passData is what one measured pass recorded.
type passData struct {
	traced bool
	wall   time.Duration
	ops    int
	trials map[string][]float64 // class -> latency of each op, ms
	missMs []float64            // latency of each op that did real work
	// spinNs is the time of a fixed calibration loop, averaged over one
	// run just before the pass and one just after: how fast the host
	// processor was while the pass ran.
	spinNs float64
}

func newRun(opts options, sz sizes) *run {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	return &run{opts: opts, sz: sz, p: p, epoch: time.Now(), layer: map[string][]float64{}}
}

// newOp returns the identifier the spans of one op share.
func (r *run) newOp() int64 { return r.ids.Add(1) }

// span records one span of a traced pass and returns its id; untraced
// passes record nothing.
func (r *run) span(op, parent int64, layer, name string, start time.Time, d time.Duration, units int64) int64 {
	if !r.tracing {
		return 0
	}
	id := r.ids.Add(1)
	s := span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), Units: units,
	}
	s.EndNs = s.StartNs + d.Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// timed runs f as a single-span op of the given layer and returns how
// long it took.
func (r *run) timed(layer, name string, units int64, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.span(r.newOp(), 0, layer, name, start, d, units)
	return d
}

// observe records one sample of a per-layer metric; the metric's value
// is the median of its samples. Untraced passes record nothing. Names
// starting with "_" are intermediate and never printed.
func (r *run) observe(name string, v float64) {
	if !r.tracing {
		return
	}
	r.mu.Lock()
	r.layer[name] = append(r.layer[name], v)
	r.mu.Unlock()
}

// done reports one finished op: its class, whether it did real work (as
// opposed to being answered from a cache), its latency, and the error
// of the op or of its output check.
func (r *run) done(class string, miss bool, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", class, err))
		}
	}
	p := r.pass
	if p == nil {
		return
	}
	p.ops++
	ms := float64(d.Nanoseconds()) / 1e6
	p.trials[class] = append(p.trials[class], ms)
	if miss {
		p.missMs = append(p.missMs, ms)
	}
}

// fail reports a failed check that belongs to no single op.
func (r *run) fail(what string, err error) {
	r.done(what, false, 0, err)
}

// result is what a run measured, before it is matched to the spec.
type result struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	samples  map[string]int       // sample count behind each median or percentile
	trials   map[string][]float64 // class -> latency of each measured op, ms
	rounds   int
	passes   int
}

// execute runs the workload: rounds of set-up and measured passes until
// the measured time is used, then the traced run's extras.
func execute(r *run) (*result, error) {
	var (
		setupS, heapMB []float64
		res            = &result{samples: map[string]int{}}
	)
	budget := time.Duration(r.opts.seconds) * time.Second
	for measured := time.Duration(0); res.rounds == 0 || (measured < budget && !r.capped()); res.rounds++ {
		w, err := newWorkload(r, res.rounds)
		if err != nil {
			return nil, err
		}
		r.tracing = r.opts.trace
		spin := calibrate()
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up of round %d: %w", res.rounds, err)
		}
		setup := time.Since(start)
		r.span(r.newOp(), 0, "bench", "setup", start, setup, 0)
		if spin = (spin + calibrate()) / 2; r.calibrated {
			setup = time.Duration(float64(setup) * referenceSpinNs / spin)
		}
		setupS = append(setupS, setup.Seconds())

		roundEnd := measured + budget/time.Duration(r.sz.rounds)
		for n := 0; n == 0 || (measured < roundEnd && measured < budget && !r.capped() &&
			(w.passesPerRound() == 0 || n < w.passesPerRound())); n++ {
			// Passes alternate between untraced and traced in a traced
			// run, so host drift cannot favour either side of the
			// overhead ratio.
			p := &passData{traced: r.opts.trace && len(r.passes)%2 == 1, trials: map[string][]float64{}}
			runtime.GC()
			before := calibrate()
			r.pass, r.tracing = p, p.traced
			t := time.Now()
			w.pass(len(r.passes))
			p.wall = time.Since(t)
			r.pass = nil
			p.spinNs = (before + calibrate()) / 2
			r.passes = append(r.passes, p)
			measured += p.wall
			if n == 0 {
				// Live heap is read at a fixed op count, the end of a
				// round's first pass, so that a faster system is not
				// charged for the extra state it had time to build.
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heapMB = append(heapMB, float64(ms.HeapAlloc)/(1<<20))
			}
		}
		if r.opts.trace && res.rounds == 0 {
			r.tracing = true
			w.extras()
		}
		w.close()
		if r.opts.trace && res.rounds == 0 {
			probeNative(r)
			probeSubstrates(r)
		}
	}
	r.tracing = false

	// Merge the passes, scaling the calibrated ones to reference speed.
	var (
		wall   [2]float64 // seconds; [1] = traced passes
		ops    [2]int
		missMs []float64
		spins  []float64
	)
	res.trials = map[string][]float64{}
	res.passes = len(r.passes)
	for _, p := range r.passes {
		scale := 1.0
		if r.calibrated {
			scale = referenceSpinNs / p.spinNs
		}
		i := 0
		if p.traced {
			i = 1
		}
		wall[i] += p.wall.Seconds() * scale
		ops[i] += p.ops
		spins = append(spins, p.spinNs/1e6)
		for _, ms := range p.missMs {
			missMs = append(missMs, ms*scale)
		}
		for class, trials := range p.trials {
			for _, ms := range trials {
				res.trials[class] = append(res.trials[class], ms*scale)
			}
		}
	}
	r.layer["bench.calibration_ms"] = spins

	if r.opts.trace {
		res.perLayer = r.perLayer(res.samples)
		if ops[0] > 0 && ops[1] > 0 {
			untraced := float64(ops[0]) / wall[0]
			res.perLayer["bench.trace_overhead_frac"] = 1 - float64(ops[1])/wall[1]/untraced
			res.samples["bench.trace_overhead_frac"] = ops[1]
		}
		return res, nil
	}

	var medians []float64
	for class, ms := range res.trials {
		medians = append(medians, median(ms))
		res.samples["geomean_ms."+class] = len(ms)
	}
	res.endToEnd = map[string]float64{
		"setup_s":      median(setupS),
		"ops_per_s":    float64(ops[0]) / wall[0],
		"geomean_ms":   geomean(medians),
		"miss_p95_ms":  quantile(missMs, 0.95),
		"live_heap_mb": median(heapMB),
	}
	res.samples["setup_s"] = len(setupS)
	res.samples["live_heap_mb"] = len(heapMB)
	res.samples["miss_p95_ms"] = len(missMs)
	res.samples["ops_per_s"] = ops[0]
	return res, nil
}

func (r *run) capped() bool {
	return r.sz.maxPasses > 0 && len(r.passes) >= r.sz.maxPasses
}

// The reference host's virtual CPUs each flip, for seconds at a time and
// independently of each other, between two speeds 27% apart: a fixed
// arithmetic loop takes 147 or 187 ms. A run's medians then depend on
// how much of it fell into the slow regime, and a run may see only one
// of them, so no run length evens it out. The calibration loop below is
// that arithmetic loop cut to 2 ms; every pass is bracketed by it.
//
// For a workload that runs on one host processor the loop measures the
// very processor the pass ran on, and pass time tracks it to within half
// a percent (203 ms at 1.96 ms, 258 ms at 2.50 ms). Such a workload sets
// run.calibrated, and its times are scaled to the speed at which the
// loop takes referenceSpinNs: they read as milliseconds on the reference
// host in its usual, slower regime, whichever regime the run met. Passes
// that spread over several processors are not scaled (the loop sees only
// one of them); bench.calibration_ms reports what the loop measured.
const (
	calibrateIters  = 700_000 // about 0.7 ms
	calibrateRuns   = 3
	referenceSpinNs = 2.5e6
)

var calibrateSink uint64

// calibrate times the calibration loop on the calling thread: three
// short runs, of which the fastest counts, so that a preemption does
// not read as a slow processor.
func calibrate() float64 {
	x := calibrateSink | 1
	fastest := time.Duration(math.MaxInt64)
	for run := 0; run < calibrateRuns; run++ {
		start := time.Now()
		for i := 0; i < calibrateIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		fastest = min(fastest, time.Since(start))
	}
	calibrateSink = x
	return float64(fastest.Nanoseconds()) * calibrateRuns
}

// perLayer reduces the per-layer observations to one value per metric:
// the median of its samples. A service class's self time is its latency
// less the direct kernel run paired with it.
func (r *run) perLayer(samples map[string]int) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range r.layer {
		if strings.HasPrefix(name, "_") {
			continue
		}
		out[name] = median(xs)
		samples[name] = len(xs)
	}
	for name, xs := range r.layer {
		class, ok := strings.CutSuffix(strings.TrimPrefix(name, "service."), ".p50_ms")
		if !ok || !strings.HasPrefix(name, "service.") {
			continue
		}
		self := "service." + class + ".self_ms"
		out[self] = median(xs) - median(r.layer["_paired."+class])
		samples[self] = len(xs)
	}
	return out
}

// selfTimes sums, per layer, each span's duration less the part of it
// that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, end := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, end), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Layer] += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	return self
}

// finite reports whether every value can be printed as a JSON number.
func finite(m map[string]float64) error {
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
