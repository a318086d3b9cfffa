package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"crono/internal/harness"
)

// experiments regenerates the paper's tables and figures, as in
// `crono experiments -exp all -scale 0.5`. -timeout bounds the whole
// invocation.
func experiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("crono experiments", stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = fs.Float64("scale", 1.0, "input-size multiplier over the scaled-down defaults")
		threads = fs.String("threads", "", "comma-separated thread sweep for fig1 (default 1..256)")
		seed    = fs.Int64("seed", 42, "generator seed")
		cores   = fs.Int("cores", 256, "simulated core count")
		csvDir  = fs.String("csv", "", "also write every table as CSV into this directory")
		list    = fs.Bool("list", false, "list experiments and exit")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *list || *exp == "" {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	ctx, stop := bounded(*timeout)
	defer stop()
	cfg := harness.DefaultConfig(stdout)
	cfg.Ctx = ctx
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Cores = *cores
	cfg.CSVDir = *csvDir
	if *threads != "" {
		cfg.Threads = nil
		for _, tok := range strings.Split(*threads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				return fmt.Errorf("bad thread count %q", tok)
			}
			cfg.Threads = append(cfg.Threads, v)
		}
	}

	exps := harness.All()
	if *exp != "all" {
		e, err := harness.ByID(*exp)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "==> %s: %s\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, explain(err, *timeout))
		}
		fmt.Fprintf(stdout, "<== %s done in %s\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
