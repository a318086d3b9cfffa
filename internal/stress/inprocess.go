package stress

import (
	"context"
	"net"
	"net/http"
	"time"

	"crono/internal/service"
)

// StartInProcess boots a crono service on a loopback listener with the
// scenario's server overrides applied, returning the base URL and a
// shutdown func that drains connections and the worker pool. This is how
// crono-stress (and CI) runs scenarios hermetically; pass a remote base
// URL to Run instead to stress a deployed instance.
func StartInProcess(sc *Scenario) (base string, shutdown func(), err error) {
	cfg := service.DefaultConfig()
	// Chaos scenarios want tight timeouts so slow-reader faults trip the
	// read deadline instead of stalling the run; defaults match
	// crono-serve's hardened production values.
	read, write, idle := 2*time.Minute, 6*time.Minute, 2*time.Minute
	if s := sc.Server; s != nil {
		if s.Workers > 0 {
			cfg.Workers = s.Workers
		}
		if s.Queue > 0 {
			cfg.QueueLen = s.Queue
		}
		if s.CacheEntries > 0 {
			cfg.CacheEntries = s.CacheEntries
		}
		if s.MaxGraphs > 0 {
			cfg.MaxGraphs = s.MaxGraphs
		}
		if s.MaxBodyBytes > 0 {
			cfg.MaxBodyBytes = s.MaxBodyBytes
		}
		if s.ReadTimeoutMs > 0 {
			read = time.Duration(s.ReadTimeoutMs) * time.Millisecond
		}
		if s.WriteTimeoutMs > 0 {
			write = time.Duration(s.WriteTimeoutMs) * time.Millisecond
		}
		if s.IdleTimeoutMs > 0 {
			idle = time.Duration(s.IdleTimeoutMs) * time.Millisecond
		}
	}
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       read,
		WriteTimeout:      write,
		IdleTimeout:       idle,
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain
		svc.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
