// rssd serves the simulator as a batch HTTP/JSON service: assemble
// programs, run single simulations over a bounded worker pool, and run
// parameter sweeps as durable asynchronous jobs, in-process or sharded
// across a worker fleet. See internal/server for the API and the
// README's "Server mode" and "Jobs API" sections for curl quick starts.
//
// Usage:
//
//	rssd [-addr :8080] [-workers N] [-job-dir DIR] [-worker-url URL]... ...
//
// With -job-dir, jobs survive restarts: on boot the store is replayed
// and incomplete jobs resume from their last completed point. With one
// or more -worker-url flags (or -spawn-workers N for a local fleet),
// job points are sharded across remote rssd workers instead of running
// in-process.
//
// The process shuts down gracefully on SIGINT/SIGTERM: new jobs are
// rejected with 503 while in-flight requests drain, bounded by
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
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// urlList collects repeated -worker-url flags.
type urlList []string

func (u *urlList) String() string     { return strings.Join(*u, ",") }
func (u *urlList) Set(v string) error { *u = append(*u, v); return nil }

func main() {
	var workerURLs urlList
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		backlog      = flag.Int("backlog", 0, "max jobs waiting beyond running ones (0 = 4x workers)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		timeout      = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "cap on request-supplied deadlines")
		maxCycles    = flag.Int("max-cycles", 50_000_000, "default cycle budget per simulation")
		cyclesCap    = flag.Int("cycles-cap", 500_000_000, "hard cap on request cycle budgets")
		cacheSize    = flag.Int("cache", 64, "assembled-program LRU capacity (negative disables)")
		jobPoints    = flag.Int("job-points", 4096, "max grid points per asynchronous job")
		maxJobs      = flag.Int("max-jobs", 64, "max concurrently active (non-terminal) jobs")
		jobDir       = flag.String("job-dir", "", "durable job-store directory (empty = in-memory jobs)")
		workerSlots  = flag.Int("worker-slots", 4, "concurrent points per remote worker")
		spawnWorkers = flag.Int("spawn-workers", 0, "spawn N local rssd worker processes and shard jobs across them")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests at shutdown")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		spansPath    = flag.String("trace-spans", "", "write request spans as Chrome Trace JSON here after drain ('-' for stdout)")
		flightSize   = flag.Int("span-flight-size", 0, "service span flight-recorder ring size (0 = default)")
	)
	flag.Var(&workerURLs, "worker-url", "remote rssd worker base URL (repeatable)")
	flag.Parse()

	// -spawn-workers is the one-machine fleet: fork N rssd worker
	// processes on free ports and shard jobs across them, exactly as a
	// multi-host deployment would with -worker-url.
	var workerProcs []*exec.Cmd
	if *spawnWorkers > 0 {
		urls, procs, err := spawnLocalWorkers(*spawnWorkers, *workerSlots)
		if err != nil {
			log.Fatalf("rssd: spawning workers: %v", err)
		}
		workerURLs = append(workerURLs, urls...)
		workerProcs = procs
		defer func() {
			for _, p := range workerProcs {
				p.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exiting
			}
			for _, p := range workerProcs {
				p.Wait() //nolint:errcheck
			}
		}()
	}

	api, err := server.New(server.Config{
		Workers:          *workers,
		Backlog:          *backlog,
		MaxBodyBytes:     *maxBody,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		DefaultMaxCycles: *maxCycles,
		MaxCyclesCap:     *cyclesCap,
		CacheSize:        *cacheSize,
		MaxJobPoints:     *jobPoints,
		MaxActiveJobs:    *maxJobs,
		JobDir:           *jobDir,
		WorkerURLs:       workerURLs,
		WorkerSlots:      *workerSlots,
		EnablePprof:      *enablePprof,
		SpanFlightSize:   *flightSize,
	})
	if err != nil {
		log.Fatalf("rssd: %v", err)
	}
	if *jobDir != "" {
		if skipped := api.Coordinator().Store().Skipped(); skipped > 0 {
			log.Printf("rssd: job store: tolerated %d corrupted record(s)", skipped)
		}
		log.Printf("rssd: job store %s: %d job(s) loaded", *jobDir, len(api.Coordinator().Store().Jobs()))
	}
	if n := len(workerURLs); n > 0 {
		log.Printf("rssd: sharding jobs across %d worker(s)", n)
	}
	srv := api.HTTPServer(*addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("rssd listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("rssd: serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("rssd: draining (up to %s)", *drainTimeout)
	api.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("rssd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("rssd: serve: %v", err)
	}
	// Stop the fabric only after the HTTP drain: in-flight points are
	// cancelled and stay pending in the store for the next boot's resume.
	if err := api.Close(); err != nil {
		log.Printf("rssd: closing job store: %v", err)
	}
	// Flush the span sink only after Shutdown returns: at that point the
	// drain is complete and no handler is still appending spans.
	if *spansPath != "" {
		if err := dumpSpans(api, *spansPath); err != nil {
			log.Fatalf("rssd: trace-spans: %v", err)
		}
	}
	log.Printf("rssd: drained, bye")
}

// spawnLocalWorkers forks n rssd worker processes on free localhost
// ports and returns their base URLs. Ports are picked by binding :0,
// recording the address, and releasing it for the child — a benign
// race on a single machine.
func spawnLocalWorkers(n, slots int) ([]string, []*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var urls []string
	var procs []*exec.Cmd
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return urls, procs, err
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(self, "-addr", addr, "-workers", fmt.Sprint(slots))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return urls, procs, err
		}
		procs = append(procs, cmd)
		urls = append(urls, "http://"+addr)
	}
	return urls, procs, nil
}

// dumpSpans writes the service flight recorder as a Chrome Trace so the
// request timeline of a finished rssd session loads in Perfetto.
func dumpSpans(api *server.Server, path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return api.Spans().WriteChromeTrace(w)
}
