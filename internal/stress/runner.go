package stress

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Options configures one harness run.
type Options struct {
	// BaseURL targets the serving instance (no trailing slash).
	BaseURL string
	// HTTP is the fleet's client; nil means a fresh default client.
	HTTP *http.Client
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
	// SettleTimeout bounds the post-drain wait for the server to quiesce
	// (queue empty, in-flight zero, goroutines back at baseline) before
	// the final scrape. Default 10s.
	SettleTimeout time.Duration
	// MaxRequests proportionally rescales the scenario's budget (0 keeps
	// it as scripted).
	MaxRequests int
}

// Run executes a scenario against a serving instance: create graphs,
// scrape a baseline, run every phase's fleet, drain, scrape again, and
// evaluate assertions into a report.
func Run(ctx context.Context, sc *Scenario, opts Options) (*Report, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.SettleTimeout <= 0 {
		opts.SettleTimeout = 10 * time.Second
	}
	if opts.MaxRequests > 0 {
		sc.ScaleBudget(opts.MaxRequests)
	}
	sched, err := Plan(sc)
	if err != nil {
		return nil, err
	}
	logf("scenario %s: seed %d, schedule digest %s, %d planned requests",
		sc.Name, sc.Seed, sched.Digest, sched.Ops())

	client := NewClient(opts.BaseURL, opts.HTTP)
	// Scrapes use their own keepalive-free client so scrape connections
	// never linger in the goroutine baseline.
	scrapeClient := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   10 * time.Second,
	}
	scrape := func() (*Metrics, error) {
		resp, err := scrapeClient.Get(opts.BaseURL + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("stress: scrape /metrics: %w", err)
		}
		defer resp.Body.Close()
		return ParseMetrics(resp.Body)
	}

	if err := client.Setup(ctx, sc.Graphs); err != nil {
		return nil, err
	}
	before, err := scrape()
	if err != nil {
		return nil, err
	}
	baseline, _ := before.Gauge("crono_goroutines")

	start := time.Now()
	var (
		mu  sync.Mutex
		obs []Observation
	)
	record := func(o Observation) {
		mu.Lock()
		obs = append(obs, o)
		mu.Unlock()
	}

	for _, pp := range sched.Phases {
		phaseCtx := ctx
		var cancel context.CancelFunc
		if pp.DurationMs > 0 {
			phaseCtx, cancel = context.WithTimeout(ctx, time.Duration(pp.DurationMs)*time.Millisecond)
		}
		phaseStart := time.Now()
		var wg sync.WaitGroup
		for _, up := range pp.Users {
			wg.Add(1)
			go func(up UserPlan) {
				defer wg.Done()
				for i := range up.Ops {
					op := &up.Ops[i]
					if phaseCtx.Err() != nil {
						return // phase duration cap: skip remaining ops
					}
					if op.AtMs >= 0 {
						// Open-loop/burst: wait for the planned offset; if
						// behind schedule, fire immediately.
						wait := time.Until(phaseStart.Add(time.Duration(op.AtMs * float64(time.Millisecond))))
						if wait > 0 && !sleepCtx(phaseCtx, wait) {
							return
						}
					} else if op.ThinkMs > 0 {
						if !sleepCtx(phaseCtx, time.Duration(op.ThinkMs*float64(time.Millisecond))) {
							return
						}
					}
					record(client.Do(phaseCtx, pp.Name, up.User, op))
				}
			}(up)
		}
		wg.Wait()
		if cancel != nil {
			cancel()
		}
		logf("phase %s: %d users done in %s", pp.Name, len(pp.Users), time.Since(phaseStart).Round(time.Millisecond))
	}
	elapsed := time.Since(start)

	// Drain: drop fleet keep-alives, then wait for the server to quiesce
	// before the final scrape — canceled kernels end at their next
	// barrier, so in-flight work needs a beat to unwind.
	if t, ok := client.HTTP.Transport.(*http.Transport); ok && t != nil {
		t.CloseIdleConnections()
	} else {
		client.HTTP.CloseIdleConnections()
	}
	maxGrowth := 0.0
	if sc.Assertions.MaxGoroutineGrowth != nil {
		maxGrowth = *sc.Assertions.MaxGoroutineGrowth
	}
	after, final, err := settle(scrape, baseline, maxGrowth, opts.SettleTimeout)
	if err != nil {
		return nil, err
	}
	logf("drained: goroutines %g → %g", baseline, final)

	results := evaluate(&sc.Assertions, obs, before, after, baseline, final)
	failed := 0
	for _, r := range results {
		if !r.Pass {
			failed++
			logf("FAIL %s: got %s, want %s", r.Name, r.Got, r.Want)
		}
	}

	phases, totals := buildPhaseReports(sched, obs)
	rep := &Report{
		Scenario:             sc.Name,
		Description:          sc.Description,
		Seed:                 sc.Seed,
		ScheduleDigest:       sched.Digest,
		Target:               opts.BaseURL,
		StartedAt:            start.UTC().Format(time.RFC3339),
		DurationSeconds:      elapsed.Seconds(),
		Totals:               totals,
		Phases:               phases,
		GoroutinesBaseline:   baseline,
		GoroutinesAfterDrain: final,
		MetricsDelta:         CounterDeltas(before, after),
		Assertions:           results,
		Failed:               failed,
	}
	return rep, nil
}

// settle polls /metrics until the server looks quiescent — empty queue,
// zero in-flight runs, goroutines within the allowed growth — or the
// timeout passes; either way it returns the last scrape. Servers without
// the runtime gauges (pre-gauge builds) settle on queue depth alone.
func settle(scrape func() (*Metrics, error), baseline, maxGrowth float64, timeout time.Duration) (*Metrics, float64, error) {
	deadline := time.Now().Add(timeout)
	for {
		m, err := scrape()
		if err != nil {
			return nil, 0, err
		}
		depth, _ := m.Gauge("crono_queue_depth")
		inflight, _ := m.Gauge("crono_inflight_runs")
		goroutines, hasG := m.Gauge("crono_goroutines")
		quiet := depth == 0 && inflight == 0
		if hasG && goroutines > baseline+maxGrowth {
			quiet = false
		}
		if quiet || time.Now().After(deadline) {
			return m, goroutines, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sleepCtx sleeps for d unless ctx ends first; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
