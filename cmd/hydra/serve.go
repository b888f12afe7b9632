package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

// cmdServe runs the concurrent query front end: an HTTP server over one
// loaded summary, every scan regenerated on the fly — many clients, zero
// stored rows. The server is built to survive overload and shut down
// cleanly: admission control sheds excess load with fast 429s, per-query
// deadlines turn runaway queries into 504s, and SIGINT/SIGTERM triggers a
// graceful drain — stop admitting (503), let in-flight queries finish for
// up to -drain, then hard-cancel the stragglers and exit 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("summary", "summary.json.gz", "summary file")
	addr := fs.String("addr", ":8372", "listen address")
	par := fs.Int("parallelism", runtime.GOMAXPROCS(0), "workers per query (0 = sequential; clamped to GOMAXPROCS)")
	sample := fs.Int("sample", 10, "max result rows returned per query")
	rate := fs.Float64("rate", 0, "generation velocity in rows/sec per scan (0 = unlimited; disables parallelism)")
	maxInFlight := fs.Int("max-inflight", 2*runtime.GOMAXPROCS(0), "max concurrently executing queries (0 = unlimited)")
	maxQueue := fs.Int("queue", 64, "max queries waiting for an execution slot (0 = shed immediately)")
	queueWait := fs.Duration("queue-wait", serve.DefaultQueueWait, "max time a queued query waits before a 429")
	maxTimeout := fs.Duration("timeout", 30*time.Second, "per-query deadline cap; requests may ask for less via timeout_ms (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown grace: how long in-flight queries may finish after SIGINT/SIGTERM")
	traceAll := fs.Bool("trace", true, "trace every query (feeds per-operator /metricsz histograms and /statsz top operators)")
	slowQuery := fs.Duration("slow-query", 0, "log queries at or above this latency as structured slow-query records (0 = off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.Parse(args)

	sum, err := readSummary(*in)
	if err != nil {
		return err
	}
	srv := serve.New(sum, serve.Options{
		Parallelism: *par,
		SampleLimit: *sample,
		RowsPerSec:  *rate,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		MaxTimeout:  *maxTimeout,

		TraceQueries:       *traceAll,
		SlowQueryThreshold: *slowQuery,
		EnablePprof:        *pprofOn,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Listen explicitly so startup failures (port in use) surface before we
	// report the server as up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d dataless tables on %s (parallelism=%d, max-inflight=%d, queue=%d, timeout=%v)\n",
		len(sum.Relations), *addr, *par, *maxInFlight, *maxQueue, *maxTimeout)
	fmt.Printf("  POST %s/query   {\"sql\": \"SELECT COUNT(*) FROM ...\", \"timeout_ms\": 250}\n", *addr)
	fmt.Printf("  GET  %s/healthz\n", *addr)
	fmt.Printf("  GET  %s/statsz\n", *addr)
	fmt.Printf("  GET  %s/metricsz\n", *addr)
	if *pprofOn {
		fmt.Printf("  GET  %s/debug/pprof/\n", *addr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		return err // listener failed; nothing to drain
	case sig := <-sigCh:
		fmt.Printf("received %v, draining (grace %v)\n", sig, *drain)
	}

	// Graceful shutdown, in escalation order: refuse new queries (503),
	// give in-flight ones the grace period, then hard-cancel whatever is
	// still running — each unwinds at its next batch boundary — and wait
	// for the connections to close for real.
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Printf("drain grace expired, canceling in-flight queries\n")
		srv.CancelInFlight()
		err = httpSrv.Shutdown(context.Background())
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if serveErr := <-errCh; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	fmt.Printf("drained clean, exiting\n")
	return nil
}
