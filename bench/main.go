// Command bench is the repository's benchmark: five workloads that
// drive the crono facade, the HTTP API and the simulator substrates the
// way users do, the end-to-end metrics a user would see, and per-layer
// numbers from a traced run. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory explains them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload serve-read --seed 1 --trace 1   # per-layer metrics and a span file
//	bash bench/run.sh --compare a.jsonl b.jsonl                  # two result sets written with --out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	specPath string
	out      string
	traceOut string
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that names the workloads
// and the metrics, with their units, directions and bounds. The program
// prints exactly the metrics it lists.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is what the driver reads from the last line of standard
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run reports; --out writes all of it.
type record struct {
	resultLine

	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Scale    string   `json:"scale"`
	Failures []string `json:"failures,omitempty"`
	Host     hostInfo `json:"host"`
	// Counts are the frozen op counts of one pass, with the rounds and
	// passes this run completed.
	Counts map[string]int `json:"counts"`
	// Samples is the sample count behind every median and percentile.
	Samples map[string]int `json:"samples"`
	// Trials are the individual latencies, in ms, of every measured op of
	// every arm or class.
	Trials map[string][]float64 `json:"trials"`
	// SelfMs is each layer's self time over the traced passes.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

type hostInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func host(p int) hostInfo {
	h := hostInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: p,
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	// The toolchain stamps the commit when it builds inside a git
	// checkout; elsewhere there is none to report.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func newWorkload(r *run, round int) (workload, error) {
	switch r.opts.workload {
	case "kernel-social":
		return &kernelWorkload{r: r, arms: socialArms}, nil
	case "kernel-road":
		return &kernelWorkload{r: r, road: true, arms: roadArms}, nil
	case "sim-sparse":
		return &simWorkload{r: r}, nil
	case "serve-read":
		return &readWorkload{r: r}, nil
	case "serve-churn":
		return &churnWorkload{r: r, round: round}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", r.opts.workload)
}

// benchmark runs one workload and matches what it measured to the spec:
// every metric the spec lists is reported, and nothing else. A per-layer
// metric of a layer the workload never enters reads 0.
func benchmark(opts options) (*record, error) {
	spec, err := loadSpec(opts.specPath)
	if err != nil {
		return nil, err
	}
	sz, ok := scales[opts.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", opts.scale)
	}
	if opts.seconds == 0 {
		opts.seconds = spec.RunSeconds
	}
	r := newRun(opts, sz)
	rec := &record{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		Scale: opts.scale, Host: host(r.p),
	}
	rec.Metrics = map[string]metricValue{}
	res, err := execute(r)
	if err != nil {
		return nil, err
	}

	measured, listed := res.endToEnd, spec.EndToEnd
	if opts.trace {
		measured, listed = res.perLayer, spec.PerLayer
	}
	if err := finite(measured); err != nil {
		return nil, err
	}
	for _, m := range listed {
		v, ok := measured[m.Name]
		if !ok && !opts.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(measured, m.Name)
	}
	for name := range measured {
		return nil, fmt.Errorf("metric %s was measured but BENCHMARK.json does not list it", name)
	}

	rec.Attempted, rec.Failed, rec.Failures = r.attempted, r.failed, r.failures
	rec.Correct = r.failed == 0
	rec.Samples, rec.Trials = res.samples, res.trials
	rec.Counts = map[string]int{
		"rounds": res.rounds, "passes": res.passes,
		"reqs_per_client": sz.reqsPerClient, "churn_cycles": sz.churnCycles, "paired_runs": sz.pairedRuns,
	}
	if opts.trace {
		rec.SelfMs = selfTimes(r.spans)
		if err := writeTrace(opts, r.spans, rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// writeTrace writes the traced run's spans with its per-layer metrics.
func writeTrace(opts options, spans []span, rec *record) error {
	path := opts.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+opts.workload+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Metrics  map[string]metricValue `json:"metrics"`
		SelfMs   map[string]float64     `json:"self_ms"`
		Spans    []span                 `json:"spans"`
	}{opts.workload, opts.seed, rec.Metrics, rec.SelfMs, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// print writes the metrics for a reader, then the result line for the
// driver as the last line of standard output.
func (rec *record) print() error {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d seconds=%d trace=%t scale=%s: %d rounds, %d passes, %d ops attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale,
		rec.Counts["rounds"], rec.Counts["passes"], rec.Attempted, rec.Failed)
	for _, name := range names {
		m := rec.Metrics[name]
		line := fmt.Sprintf("  %-44s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := rec.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, f := range rec.Failures {
		fmt.Println("  FAILED", f)
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// appendRecord adds the whole record to a result set, one JSON object a
// line.
func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		opts    options
		trace   int
		compare bool
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&opts.seconds, "seconds", 0, "seconds to measure (default: run_seconds of the spec)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	flag.StringVar(&opts.scale, "scale", "full", "full or smoke")
	flag.StringVar(&opts.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&opts.out, "out", "", "append the full run record to this result set (JSON lines)")
	flag.StringVar(&opts.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&compare, "compare", false, "compare the two result sets named as arguments")
	flag.Parse()
	opts.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two result sets"))
		}
		ok, err := compareSets(os.Stdout, opts.specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rec, err := benchmark(opts)
	if err != nil {
		fatal(err)
	}
	if opts.out != "" {
		if err := appendRecord(opts.out, rec); err != nil {
			fatal(err)
		}
	}
	if err := rec.print(); err != nil {
		fatal(err)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
