// Command crono-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	crono-experiments -list
//	crono-experiments -exp fig1
//	crono-experiments -exp all -scale 0.5
//	crono-experiments -exp tab4 -threads 1,4,16,64,256
//
// SIGINT cancels the in-flight kernel at its next barrier; -timeout
// bounds the whole invocation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"crono/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = flag.Float64("scale", 1.0, "input-size multiplier over the scaled-down defaults")
		threads = flag.String("threads", "", "comma-separated thread sweep for fig1 (default 1..256)")
		seed    = flag.Int64("seed", 42, "generator seed")
		cores   = flag.Int("cores", 256, "simulated core count")
		csvDir  = flag.String("csv", "", "also write every table as CSV into this directory")
		list    = flag.Bool("list", false, "list experiments and exit")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()

	if *list || *exp == "" {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := harness.DefaultConfig(os.Stdout)
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
				fmt.Fprintf(os.Stderr, "crono-experiments: bad thread count %q\n", tok)
				os.Exit(1)
			}
			cfg.Threads = append(cfg.Threads, v)
		}
	}

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.All()
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crono-experiments:", err)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	}

	for _, e := range exps {
		fmt.Printf("==> %s: %s\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(cfg); err != nil {
			switch {
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(os.Stderr, "crono-experiments: %s: interrupted\n", e.ID)
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(os.Stderr, "crono-experiments: %s: exceeded the %s timeout\n", e.ID, *timeout)
			default:
				fmt.Fprintf(os.Stderr, "crono-experiments: %s: %v\n", e.ID, err)
			}
			os.Exit(1)
		}
		fmt.Printf("<== %s done in %s\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
