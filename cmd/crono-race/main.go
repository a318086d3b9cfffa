// Command crono-race runs kernels on the racecheck platform — the
// simulator's deterministic baton scheduler (exec.Sched) under its
// round-robin rule, plus a FastTrack-style happens-before engine
// observing every exec.Ctx annotation — and
// reports conflicting access pairs no lock, barrier or atomic operation
// orders. Reports name the accessed datum through the region registry
// ("bfs.level[42]", not a raw address) and give both annotation call
// sites.
//
// Usage:
//
//	crono-race                                    # all kernels, all strategies
//	crono-race -spec BFS:road-tx:frontier
//	crono-race -spec BFS:sparse:scan,COMM:sparse:frontier -threads 2 -n 128
//	crono-race -json
//
// Each -spec entry is kernel:graph:strategy; strategy "all" (the
// default when omitted) expands to scan and frontier for the kernels
// with a frontier execution (core.Benchmark.Frontier: BFS, SSSP_DIJK,
// CONN_COMP, PageRank and COMM) and to scan alone for the rest. The
// kernel name "all" expands to the whole suite plus the variants. Exit status is 1 when races were
// found, 2 on usage or execution errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"crono/internal/core"
	"crono/internal/graph"
	"crono/internal/racecheck"
)

type spec struct {
	kernel   string
	kind     graph.Kind
	strategy core.Strategy
}

type specResult struct {
	Kernel   string           `json:"kernel"`
	Graph    string           `json:"graph"`
	Strategy string           `json:"strategy"`
	Threads  int              `json:"threads"`
	N        int              `json:"n"`
	Races    []racecheck.Race `json:"races"`
}

type raceReport struct {
	Racy    bool         `json:"racy"`
	Results []specResult `json:"results"`
}

func main() {
	var (
		specFlag = flag.String("spec", "all", "comma-separated kernel:graph:strategy entries")
		threads  = flag.Int("threads", 3, "thread count per run")
		n        = flag.Int("n", 64, "graph vertices (matrix kernels use a reduced size)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		seed     = flag.Int64("seed", 1, "graph generator seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "crono-race: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	specs, err := parseSpecs(*specFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crono-race: %v\n", err)
		os.Exit(2)
	}

	report := raceReport{Results: []specResult{}}
	for _, s := range specs {
		res, err := runSpec(s, *threads, *n, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crono-race: %s:%s:%s: %v\n", s.kernel, s.kind, s.strategy, err)
			os.Exit(2)
		}
		if len(res.Races) > 0 {
			report.Racy = true
		}
		report.Results = append(report.Results, res)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "crono-race: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, res := range report.Results {
			status := "ok"
			if len(res.Races) > 0 {
				status = fmt.Sprintf("%d race(s)", len(res.Races))
			}
			fmt.Printf("%-14s %-8s %-8s t=%d n=%d  %s\n",
				res.Kernel, res.Graph, res.Strategy, res.Threads, res.N, status)
			for _, r := range res.Races {
				fmt.Printf("  %s\n", r)
			}
		}
	}
	if report.Racy {
		os.Exit(1)
	}
}

// parseSpecs expands the -spec flag: "all" kernels, "all" strategies
// and every generator kind are legal wildcards.
func parseSpecs(s string) ([]spec, error) {
	var out []spec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		kernel := parts[0]
		kindName := "sparse"
		stratName := "all"
		switch len(parts) {
		case 1:
			// kernel (or "all") alone: the default kind, every strategy
		case 2:
			kindName = parts[1]
		case 3:
			kindName = parts[1]
			stratName = parts[2]
		default:
			return nil, fmt.Errorf("bad spec %q (want kernel[:graph[:strategy]])", entry)
		}

		kind := graph.Kind(kindName)
		found := false
		for _, k := range graph.Kinds {
			if k == kind {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown graph kind %q", kindName)
		}

		var kernels []core.Benchmark
		if kernel == "all" {
			kernels = append(core.Suite(), core.Variants()...)
		} else {
			b, err := core.ByName(kernel)
			if err != nil {
				return nil, err
			}
			kernels = []core.Benchmark{b}
		}

		for _, b := range kernels {
			strategies := []core.Strategy{core.StrategyScan, core.StrategyFrontier}
			if stratName != "all" {
				st := core.Strategy(stratName)
				if !st.Valid() {
					return nil, fmt.Errorf("unknown strategy %q", stratName)
				}
				strategies = []core.Strategy{st}
			} else if !b.Frontier {
				// Kernels with one execution: one run covers them.
				strategies = strategies[:1]
			}
			for _, st := range strategies {
				out = append(out, spec{kernel: b.Name, kind: kind, strategy: st})
			}
		}
	}
	return out, nil
}

// runSpec executes one kernel on a fresh checking platform and returns
// its races. Race slices are never nil so the JSON is stable.
func runSpec(s spec, threads, n int, seed int64) (specResult, error) {
	b, err := core.ByName(s.kernel)
	if err != nil {
		return specResult{}, err
	}
	pl := racecheck.New()
	req := core.Request{Threads: threads, Strategy: s.strategy}
	req.G = graph.Generate(s.kind, n, seed)
	req.Source = 0
	size := n
	switch {
	case b.UsesMatrix:
		size = n / 4
		if size < 4 {
			size = 4
		}
		req.D = graph.DenseFromCSR(graph.Generate(s.kind, size, seed))
	case b.UsesCities:
		size = 7
		req.Cities = graph.Cities(size, seed+2)
	}
	if _, err := b.Run(context.Background(), pl, req); err != nil {
		return specResult{}, err
	}
	races := pl.Races()
	if races == nil {
		races = []racecheck.Race{}
	}
	return specResult{
		Kernel:   s.kernel,
		Graph:    string(s.kind),
		Strategy: string(s.strategy),
		Threads:  threads,
		N:        size,
		Races:    races,
	}, nil
}
