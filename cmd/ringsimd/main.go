// Command ringsimd serves the simulator as a daemon: a JSON job API with
// a bounded priority queue, a content-addressed result cache, NDJSON
// streaming of interval telemetry, and graceful SIGTERM drain. See
// internal/service for the API surface and DESIGN.md §9 for the design.
//
// Usage:
//
//	ringsimd [-addr 127.0.0.1:8080] [-workers N] [-queue N] [-cache N]
//	         [-drain 30s] [-quiet] [-maxbody BYTES]
//	         [-wal DIR] [-walsync always|none] [-cachedir DIR]
//	         [-coordinator] [-backends URL,URL,...] [-hedge 0s]
//	         [-register http://COORDINATOR] [-heartbeat 5s]
//	         [-sojourn 0s] [-ratelimit 0] [-rateburst 0]
//	         [-breaker N]
//
// Overload resilience (DESIGN.md §12), default-off: -sojourn enables
// CoDel-style queue aging (sustained head-of-line sojourn above the
// target sheds one lowest-priority job per interval); -ratelimit caps
// per-client_id admissions per second (burst -rateburst). Submissions
// may carry deadline_ms — an end-to-end budget the daemon enforces in
// the queue, on workers, and across federation.
//
// A coordinator keeps one circuit breaker per backend: -breaker
// consecutive dispatch failures (or one failed health probe) open it,
// the next passing probe or heartbeat makes it half-open, and the one
// job it then takes closes or re-opens it.
//
// Durability (DESIGN.md §11): -wal journals every job state transition
// before it is acknowledged and replays the journal on startup —
// completed jobs resolve from the -cachedir result store, incomplete
// jobs are requeued with their original priority and order, so a
// restarted sweep produces byte-identical output. -cachedir persists
// results as checksummed content-addressed files. Both default off
// (the volatile pre-durability behavior).
//
// Federation (DESIGN.md §9): with -backends (static fleet) or
// -coordinator (workers join via -register), the daemon becomes a
// coordinator — queued jobs are dispatched least-loaded-first across its
// local worker pool and every backend whose breaker is not open, failed
// backends are probed, failed over and retried, and the result cache
// fronts the whole fleet. `-workers -1` disables local execution (pure
// dispatcher). A coordinator waits on each dispatched job with one
// blocking GET /v1/jobs/{id}?wait=1 to its worker. On a worker,
// `-register URL` keeps it registered with a coordinator (heartbeat every
// -heartbeat, exponential backoff while unreachable).
//
// On startup the daemon prints exactly one line to stdout:
//
//	ringsimd listening on http://HOST:PORT
//
// so scripts can bind to port 0 and discover the address. On SIGTERM or
// SIGINT it stops accepting jobs (/readyz turns 503), cancels queued
// jobs, lets running simulations finish within the -drain deadline, then
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"flexsnoop/internal/service"
)

var (
	addrFlag    = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workersFlag = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queueFlag   = flag.Int("queue", 0, "pending-job queue capacity (0 = default 64)")
	cacheFlag   = flag.Int("cache", 0, "result cache entries (0 = default 256, negative disables)")
	drainFlag   = flag.Duration("drain", 30*time.Second, "graceful-drain deadline for running jobs on shutdown")
	quietFlag   = flag.Bool("quiet", false, "suppress per-job log lines")
	maxBodyFlag = flag.Int64("maxbody", 0, "maximum HTTP request body bytes (0 = default 1 MiB)")

	walFlag      = flag.String("wal", "", "write-ahead journal directory (empty disables crash durability)")
	walSyncFlag  = flag.String("walsync", "always", "journal fsync policy: always (power-loss safe) or none (kill -9 safe)")
	cacheDirFlag = flag.String("cachedir", "", "disk result-cache directory (empty keeps the cache memory-only)")

	coordFlag     = flag.Bool("coordinator", false, "accept worker registrations on POST /v1/backends and dispatch across them")
	backendsFlag  = flag.String("backends", "", "comma-separated worker base URLs to dispatch to (implies coordinator mode)")
	hedgeFlag     = flag.Duration("hedge", 0, "coordinator hedged-dispatch delay (0 disables): re-dispatch a still-running job to a second backend after this long")
	registerFlag  = flag.String("register", "", "coordinator base URL to register this worker with (and heartbeat)")
	heartbeatFlag = flag.Duration("heartbeat", 5*time.Second, "registration heartbeat interval when -register is set")

	sojournFlag   = flag.Duration("sojourn", 0, "CoDel-style queue-sojourn target: shed low-priority jobs while head-of-line wait stays above it (0 disables)")
	rateLimitFlag = flag.Float64("ratelimit", 0, "per-client_id admissions per second (0 disables rate limiting)")
	rateBurstFlag = flag.Int("rateburst", 0, "token-bucket burst for -ratelimit (0 = ceil(ratelimit))")
	breakerFlag   = flag.Int("breaker", 0, "consecutive dispatch failures that open a backend's circuit breaker (0 = default 1)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringsimd:", err)
		os.Exit(1)
	}
}

func run() error {
	logger := log.New(os.Stderr, "ringsimd: ", log.LstdFlags)
	cfg := service.Config{
		Workers:         *workersFlag,
		QueueCapacity:   *queueFlag,
		CacheEntries:    *cacheFlag,
		Coordinator:     *coordFlag,
		HedgeDelay:      *hedgeFlag,
		WALDir:          *walFlag,
		WALSync:         *walSyncFlag,
		CacheDir:        *cacheDirFlag,
		MaxRequestBytes: *maxBodyFlag,
		SojournTarget:   *sojournFlag,
		RateLimit:       *rateLimitFlag,
		RateBurst:       *rateBurstFlag,
		BreakerFailures: *breakerFlag,
	}
	for _, u := range strings.Split(*backendsFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.Backends = append(cfg.Backends, u)
		}
	}
	if !*quietFlag {
		cfg.Logf = logger.Printf
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return err
	}
	// The discovery line scripts parse; everything else goes to stderr.
	fmt.Printf("ringsimd listening on http://%s\n", ln.Addr())
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0
	}
	role := ""
	if *coordFlag || len(cfg.Backends) > 0 {
		role = ", coordinator"
	}
	logger.Printf("serving on %s (%d local workers%s)", ln.Addr(), workers, role)

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	regCtx, regCancel := context.WithCancel(context.Background())
	defer regCancel()
	if *registerFlag != "" {
		reg := service.BackendRegistration{
			URL:     "http://" + ln.Addr().String(),
			Workers: workers,
		}
		go service.RegisterLoop(regCtx, *registerFlag, reg, *heartbeatFlag, logger.Printf)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Printf("%s: draining (deadline %s)", sig, *drainFlag)
		// Stop heartbeating first so the coordinator stops dispatching
		// here, then drain with the API still up so clients can fetch the
		// jobs they already own (Drain finalises every job, which releases
		// every blocked wait); then stop the listener.
		regCancel()
		svc.Drain(*drainFlag)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Every job is terminal after Drain, so what is left are
			// connections with no finished request, such as one that
			// never sent anything (Shutdown counts those as active for
			// their first 5 s). Closing them loses no work.
			logger.Printf("http shutdown: %v; closing remaining connections", err)
			httpSrv.Close()
		}
		logger.Printf("drained, exiting")
		return nil
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
