// The serve subcommand: simulation-as-a-service over the scenario
// registry.
//
//	simaibench serve -addr :8080 -workers 4 -queue 64
//
// serves POST /v1/run, GET /v1/scenarios, /healthz, /readyz and /statz
// (see internal/serve) until SIGINT/SIGTERM, then drains gracefully:
// readiness flips first, new runs get typed 503s, in-flight runs finish
// up to -drain-timeout and every completed result is flushed to its
// waiting caller before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"syscall"
	"time"

	_ "simaibench/internal/experiments" // registers the paper's scenarios
	"simaibench/internal/serve"
	"simaibench/internal/sigctx"
)

// serveMain is the testable body of `simaibench serve`: it parses args,
// serves until ctx or a termination signal cancels, and returns the
// process exit code (0 clean drain, 1 drain timeout or listener error,
// 2 flag-parse failure).
func serveMain(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("simaibench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max simulations running concurrently (0 = all cores)")
	queue := fs.Int("queue", 64, "admission queue depth; a full queue sheds with 429 + Retry-After")
	cacheSize := fs.Int("cache-size", 1024, "result cache entries (LRU; negative disables caching)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight runs")
	runTimeout := fs.Duration("run-timeout", 120*time.Second, "default per-run deadline when the request carries none")
	maxEvents := fs.Int64("max-events", 0, "default DES event budget per sweep cell when the request carries none (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s := serve.New(serve.Config{
		Addr: *addr, Workers: *workers, QueueDepth: *queue, CacheSize: *cacheSize,
		DrainTimeout: *drainTimeout, RunTimeout: *runTimeout, MaxEvents: *maxEvents,
	})

	// First SIGINT/SIGTERM drains gracefully; a second kills outright
	// (sigctx restores default handling once the drain starts).
	sctx, stop := sigctx.WithSignals(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		<-s.Ready()
		fmt.Fprintf(stderr, "simaibench serve: serving on http://%s (queue %d, cache %d)\n",
			s.Addr(), *queue, *cacheSize)
	}()
	if err := s.ListenAndServe(sctx); err != nil {
		fmt.Fprintln(stderr, "simaibench serve:", err)
		return 1
	}
	fmt.Fprintln(stderr, "simaibench serve: drained cleanly")
	return 0
}
