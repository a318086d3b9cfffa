// Command crono is the CRONO suite's command line. Its subcommands run
// one benchmark (run), sweep one architectural dimension to CSV (sweep),
// generate input graphs (graphgen), record and replay traces (trace),
// regenerate the paper's tables and figures (experiments) and check every
// kernel against its oracle (validate):
//
//	crono [run] -bench SSSP_DIJK -platform sim -threads 64 -n 16384
//	crono sweep -bench BFS -dim threads -values 1,4,16,64,256
//
// A first argument that is a flag goes to run, so `crono -list` lists the
// benchmarks. Each subcommand's -help lists its flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"crono/internal/core"
	"crono/internal/exec"
	"crono/internal/graph"
	"crono/internal/native"
	"crono/internal/sim"
)

// subcommands maps each name to its entry point, which parses args into
// its own flag set, writes its output to stdout and its diagnostics to
// stderr.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"run":         run,
	"sweep":       sweep,
	"graphgen":    graphgen,
	"trace":       traceCmd,
	"experiments": experiments,
	"validate":    validate,
}

const usage = "usage: crono [run|sweep|graphgen|trace|experiments|validate] [flags]"

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args[0] names, or run when args[0] is a
// flag or absent, and returns the exit status: 0 on success or -help, 2
// for a bad command line, 1 when the subcommand fails.
func dispatch(args []string, stdout, stderr io.Writer) int {
	name := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	cmd, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(stderr, "crono: unknown subcommand %q\n%s\n", name, usage)
		return 2
	}
	switch err := cmd(args, stdout, stderr); {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2 // the flag package has printed the error and the usage
	default:
		// run is the default subcommand, so its errors read "crono: ...".
		fmt.Fprintf(stderr, "%s: %v\n", strings.TrimSuffix("crono "+name, " run"), err)
		return 1
	}
}

// usageError is a command line the flag package rejected.
type usageError struct{ error }

// parseFlags parses args into fs, which reports its own errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// newFlags returns the flag set of subcommand name, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// interruptible returns the invocation's context: SIGINT cancels the
// in-flight kernel at its next barrier and a positive timeout bounds the
// whole invocation.
func interruptible(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// explain says which of SIGINT and the timeout ended a canceled run.
func explain(err error, timeout time.Duration) error {
	switch {
	case errors.Is(err, context.Canceled):
		return errors.New("interrupted")
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("run exceeded the %s timeout", timeout)
	}
	return err
}

// simConfig is the Table II multicore with the given tile count, on
// out-of-order cores when ooo is set.
func simConfig(cores int, ooo bool) sim.Config {
	cfg := sim.Default()
	cfg.Cores = cores
	if ooo {
		cfg.CoreType = sim.OutOfOrder
	}
	return cfg
}

// newPlatform builds the named platform: the host's goroutines, or the
// simulated multicore of simConfig(cores, ooo).
func newPlatform(name string, cores int, ooo bool) (exec.Platform, error) {
	switch name {
	case "native":
		return native.New(), nil
	case "sim":
		m, err := sim.New(simConfig(cores, ooo))
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want sim or native)", name)
}

// newInput builds b's input from source: seeded cities for TSP,
// otherwise the graph gen returns — asked for the matrix kernels' size
// when matrix is set — handed to APSP and BETW_CENT in dense form.
func newInput(b core.Benchmark, source, cities int, seed int64, gen func(matrix bool) (*graph.CSR, error)) (core.Input, error) {
	in := core.Input{Source: source}
	if b.UsesCities {
		in.Cities = graph.Cities(cities, seed)
		return in, nil
	}
	g, err := gen(b.UsesMatrix)
	if err != nil {
		return in, err
	}
	if b.UsesMatrix {
		in.D = graph.DenseFromCSR(g)
	} else {
		in.G = g
	}
	return in, nil
}
