// Command crono-serve runs the CRONO graph-analytics service: a JSON API
// that loads graphs into an in-memory store and executes any suite kernel
// on the native platform or the futuristic-multicore simulator, with a
// bounded worker pool, an LRU result cache with request coalescing, and
// Prometheus-text metrics.
//
// Usage:
//
//	crono-serve -addr :8080 -workers 4 -queue 64
//	crono-serve -addr :8080 -pprof localhost:6060   # opt-in profiler
//
// Quick start:
//
//	curl -s localhost:8080/v1/graphs -d '{"kind":"sparse","n":65536,"seed":42}'
//	curl -s localhost:8080/v1/run -d '{"graph":"<id>","kernel":"BFS","threads":8}'
//	curl -s -X PATCH localhost:8080/v1/graphs/<id> -d '{"inserts":[{"from":0,"to":9,"weight":3}]}'
//	curl -s localhost:8080/v1/graphs/<id>/versions
//	curl -s localhost:8080/metrics
//
// The server drains in-flight requests on SIGINT/SIGTERM, bounded by
// -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"crono/internal/service"
)

// serverTimeouts bundles the http.Server deadlines. Every edge of a
// connection's lifecycle is bounded so hostile or broken clients (slow
// request bodies, abandoned keep-alives) degrade into timeouts instead of
// tying up connections indefinitely.
type serverTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	write      time.Duration
	idle       time.Duration
}

func defaultTimeouts() serverTimeouts {
	return serverTimeouts{
		readHeader: 10 * time.Second,
		read:       2 * time.Minute,
		// The write deadline must exceed the service's MaxTimeout (5m)
		// or long kernel runs would be cut off mid-response.
		write: 6 * time.Minute,
		idle:  2 * time.Minute,
	}
}

func main() {
	cfg := service.DefaultConfig()
	ht := defaultTimeouts()
	var drain time.Duration
	var pprofAddr string
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "kernel worker pool size")
	flag.IntVar(&cfg.QueueLen, "queue", cfg.QueueLen, "worker queue bound (beyond it requests shed with 429)")
	flag.IntVar(&cfg.CacheEntries, "cache", cfg.CacheEntries, "result cache capacity (entries)")
	flag.IntVar(&cfg.MaxGraphs, "max-graphs", cfg.MaxGraphs, "graph store capacity (every PATCH-created version counts)")
	flag.IntVar(&cfg.MaxVertices, "max-vertices", cfg.MaxVertices, "largest accepted graph")
	flag.IntVar(&cfg.SimCores, "sim-cores", cfg.SimCores, "default simulated core count (perfect square)")
	flag.DurationVar(&cfg.DefaultTimeout, "timeout", cfg.DefaultTimeout, "default per-request deadline")
	flag.DurationVar(&ht.read, "read-timeout", ht.read, "full-request read deadline (headers+body); slow readers time out instead of holding connections")
	flag.DurationVar(&ht.write, "write-timeout", ht.write, "response write deadline; keep above the run timeout cap or long runs are cut off")
	flag.DurationVar(&ht.idle, "idle-timeout", ht.idle, "keep-alive idle connection deadline")
	flag.DurationVar(&drain, "drain-timeout", 15*time.Second, "shutdown drain bound")
	flag.StringVar(&pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()

	// The profiler listens on its own address so /debug/pprof never
	// shares a port with the public API: deployments expose -addr and
	// keep -pprof loopback-only.
	if pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	if ht.write > 0 && ht.write < cfg.MaxTimeout {
		log.Printf("warning: -write-timeout %s is below the %s run-timeout cap; long runs will be cut off", ht.write, cfg.MaxTimeout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, ht, drain, func(addr string) {
		log.Printf("crono-serve listening on %s", addr)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "crono-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests drain (bounded by drainTimeout), and
// the worker pool finishes queued kernels. ready is called with the bound
// address once the listener is up (tests listen on :0).
func run(ctx context.Context, cfg service.Config, ht serverTimeouts, drainTimeout time.Duration, ready func(addr string)) error {
	svc := service.New(cfg)
	defer svc.Close()

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: ht.readHeader,
		ReadTimeout:       ht.read,
		WriteTimeout:      ht.write,
		IdleTimeout:       ht.idle,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
