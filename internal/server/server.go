// Package server is the rssd batch-simulation service: an HTTP/JSON API
// over the repro facade that assembles programs, runs single
// simulations, and runs parameter sweeps as durable asynchronous jobs,
// sharded by the internal/job coordinator across a worker fleet or the
// in-process worker pool. The package owns
// everything between the socket and the simulator — request validation
// and size limits, the structured error envelope (internal/api),
// per-request deadlines wired into Machine.RunContext, the
// assembled-program LRU, service metrics, and the draining flag the
// graceful-shutdown path sets — while cmd/rssd adds only flags, signal
// handling, worker spawning and the http.Server lifecycle.
//
// Endpoints:
//
//	POST   /v1/assemble        source → encoded words + disassembly
//	POST   /v1/run             source or words + RunSpec → run report
//	POST   /v1/jobs            submit a sweep as a durable asynchronous job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status (?results=1 adds per-point results)
//	GET    /v1/jobs/{id}/events  chunked-JSONL per-point results as they land
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/healthz         liveness + pool occupancy
//	GET    /metrics            Prometheus text exposition of service metrics
//	GET    /debug/flightrecorder   last-N request spans + deadline triggers
//	GET    /debug/pprof/       net/http/pprof (only with Config.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Config sizes the service; zero fields take the listed defaults.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Backlog bounds jobs waiting for a worker beyond the running ones;
	// past it new jobs get 503 (default 4×Workers).
	Backlog int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 2m).
	MaxTimeout time.Duration
	// DefaultMaxCycles is the cycle budget when a RunSpec names none
	// (default 50M).
	DefaultMaxCycles int
	// MaxCyclesCap clamps request cycle budgets (default 500M).
	MaxCyclesCap int
	// CacheSize is the assembled-program LRU capacity (default 64;
	// negative disables caching).
	CacheSize int
	// MaxJobPoints caps the grid size of one asynchronous job
	// (default 4096).
	MaxJobPoints int
	// MaxActiveJobs caps concurrently non-terminal jobs; past it new
	// submissions get 503 (default 64).
	MaxActiveJobs int
	// JobDir is the durable job-store directory; empty keeps jobs in
	// memory only (working fabric, not restart-safe).
	JobDir string
	// WorkerURLs names remote rssd workers the coordinator shards job
	// points over. Empty runs points in-process through the worker
	// pool. /v1/run and /v1/assemble always execute locally.
	WorkerURLs []string
	// WorkerSlots is the per-remote-worker point concurrency
	// (default 4).
	WorkerSlots int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. The pprof
	// endpoints bypass the request-counting and latency middleware —
	// profiling traffic must not pollute service metrics.
	EnablePprof bool
	// SpanFlightSize bounds the service span flight-recorder ring
	// served by GET /debug/flightrecorder (default 4096).
	SpanFlightSize int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DefaultMaxCycles <= 0 {
		c.DefaultMaxCycles = 50_000_000
	}
	if c.MaxCyclesCap <= 0 {
		c.MaxCyclesCap = 500_000_000
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.MaxJobPoints <= 0 {
		c.MaxJobPoints = 4096
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 64
	}
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = 4
	}
	return c
}

// Server is one service instance. Create it with New and mount
// Handler() on an http.Server.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *programCache
	mux      *http.ServeMux
	draining atomic.Bool
	coord    *job.Coordinator

	// Service metrics. The telemetry registry is single-goroutine by
	// design (it belongs to the simulator's hot path), so every access
	// here — updates from handler goroutines and Render on /metrics —
	// holds mmu.
	mmu           sync.Mutex
	registry      *telemetry.Registry
	requests      map[string]*telemetry.Counter   // by handler
	failures      map[string]*telemetry.Counter   // by handler
	rejected      map[string]*telemetry.Counter   // by reason
	jobs          map[string]*telemetry.Histogram // latency ms by kind
	queueWait     map[string]*telemetry.Histogram // admission-to-slot µs by kind
	handlerDur    map[string]*telemetry.Histogram // handler wall µs by handler
	gaugeRun      *telemetry.Gauge
	gaugeQueued   *telemetry.Gauge
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	steerHits     *telemetry.Counter
	steerMisses   *telemetry.Counter
	prefetch      map[string]*telemetry.Counter // by prefetch counter name
	jobsSubmitted *telemetry.Counter
	jobsFinished  map[string]*telemetry.Counter // by terminal state
	jobPoints     map[string]*telemetry.Counter // by outcome
	gaugeJobsAct  *telemetry.Gauge
	gaugeJobQueue *telemetry.Gauge
	estimates     map[string]*telemetry.Counter // by predicted bottleneck
	estimateUs    *telemetry.Histogram          // model solve µs

	// spans is the service flight recorder: request lifecycle spans
	// (queue-wait → execute → encode, one child per job point),
	// deadline-exceeded and panic triggers, served by GET
	// /debug/flightrecorder.
	spans *span.ServiceRecorder

	// beforeRun, when set, runs as each simulation starts — a test seam
	// for the panic path.
	beforeRun func()
}

// prefetchCounterNames are the label values of rssd_prefetch_total —
// one per field of repro.PrefetchStats.
var prefetchCounterNames = []string{
	"spans_issued", "confirmed", "mispredicted", "cancelled",
	"wasted_spans", "phase_changes",
}

// handler and job-kind names used as metric label values.
var handlerNames = []string{
	"assemble", "run", "estimate", "healthz", "metrics",
	"flightrecorder", "jobs", "jobs_list", "job", "job_events", "job_cancel",
}

// estimateBottleneckNames enumerates every bottleneck label the
// analytic model can emit, so the per-bottleneck estimate counters can
// be registered up front (the telemetry registry is fixed after New).
func estimateBottleneckNames() []string {
	names := []string{"empty", "dependencies", "frontend", "issue-width", "queueing", "reconfig"}
	for k := 0; k < arch.NumUnitTypes; k++ {
		u := arch.UnitType(k).String()
		names = append(names, "units:"+u, "capacity:"+u)
	}
	return names
}

// jobKindNames label the simulation-latency and queue-wait histograms.
var jobKindNames = []string{"run", jobPointKind}

// jobStateNames label rssd_jobs_finished_total.
var jobStateNames = []string{string(api.JobDone), string(api.JobCancelled)}

// pointOutcomeNames label rssd_job_points_total.
var pointOutcomeNames = []string{"done", "failed", "requeued"}

// New builds a server from the config: metrics, the bounded pool, the
// job store (opened from cfg.JobDir, resuming any incomplete jobs) and
// the coordinator over the configured worker set.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		pool:       newPool(cfg.Workers, cfg.Backlog),
		cache:      newProgramCache(cfg.CacheSize),
		registry:   telemetry.NewRegistry(),
		requests:   map[string]*telemetry.Counter{},
		failures:   map[string]*telemetry.Counter{},
		rejected:   map[string]*telemetry.Counter{},
		jobs:       map[string]*telemetry.Histogram{},
		queueWait:  map[string]*telemetry.Histogram{},
		handlerDur: map[string]*telemetry.Histogram{},
		spans:      span.NewService(cfg.SpanFlightSize),
	}
	for _, h := range handlerNames {
		s.requests[h] = s.registry.NewCounter("rssd_requests_total",
			"HTTP requests received, by handler.", telemetry.Label{Key: "handler", Value: h})
		s.failures[h] = s.registry.NewCounter("rssd_failures_total",
			"Requests answered with a non-2xx status, by handler.", telemetry.Label{Key: "handler", Value: h})
	}
	for _, reason := range []string{api.CodeQueueFull, api.CodeDraining} {
		s.rejected[reason] = s.registry.NewCounter("rssd_rejected_total",
			"Jobs rejected at admission, by reason.", telemetry.Label{Key: "reason", Value: reason})
	}
	bounds := []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	// Queue waits and handler latencies are often sub-millisecond, so
	// those histograms bucket in microseconds.
	usBounds := []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
		50000, 100000, 250000, 500000, 1000000, 5000000, 30000000}
	for _, kind := range jobKindNames {
		s.jobs[kind] = s.registry.NewHistogram("rssd_job_duration_ms",
			"Simulation wall-clock latency in milliseconds, by job kind.", bounds,
			telemetry.Label{Key: "kind", Value: kind})
		s.queueWait[kind] = s.registry.NewHistogram("rssd_queue_wait_us",
			"Admission-to-worker-slot wait in microseconds, by job kind.", usBounds,
			telemetry.Label{Key: "kind", Value: kind})
	}
	for _, h := range handlerNames {
		s.handlerDur[h] = s.registry.NewHistogram("rssd_handler_duration_us",
			"Handler wall-clock latency in microseconds, by handler.", usBounds,
			telemetry.Label{Key: "handler", Value: h})
	}
	s.gaugeRun = s.registry.NewGauge("rssd_jobs_running",
		"Simulations currently holding a worker slot.")
	s.gaugeQueued = s.registry.NewGauge("rssd_jobs_admitted",
		"Jobs admitted and not yet finished (running plus waiting).")
	s.cacheHits = s.registry.NewCounter("rssd_program_cache_hits_total",
		"Assembly requests served from the program cache.")
	s.cacheMisses = s.registry.NewCounter("rssd_program_cache_misses_total",
		"Assembly requests that had to assemble from source.")
	s.steerHits = s.registry.NewCounter("rssd_steering_cache_hits_total",
		"Steering-cache hits aggregated over simulations run by this server.")
	s.steerMisses = s.registry.NewCounter("rssd_steering_cache_misses_total",
		"Steering-cache misses aggregated over simulations run by this server.")
	s.prefetch = map[string]*telemetry.Counter{}
	for _, name := range prefetchCounterNames {
		s.prefetch[name] = s.registry.NewCounter("rssd_prefetch_total",
			"Speculative-prefetch accounting aggregated over prefetch-policy simulations, by counter.",
			telemetry.Label{Key: "counter", Value: name})
	}
	s.estimates = map[string]*telemetry.Counter{}
	for _, b := range estimateBottleneckNames() {
		s.estimates[b] = s.registry.NewCounter("rssd_estimate_total",
			"Analytic estimates served, by the model's predicted bottleneck.",
			telemetry.Label{Key: "bottleneck", Value: b})
	}
	s.estimateUs = s.registry.NewHistogram("rssd_estimate_solve_us",
		"Analytic model solve time in microseconds (profile plus fixed point, excluding assembly).",
		usBounds)
	s.jobsSubmitted = s.registry.NewCounter("rssd_sweep_jobs_submitted_total",
		"Sweep jobs accepted by the coordinator through POST /v1/jobs.")
	s.jobsFinished = map[string]*telemetry.Counter{}
	for _, state := range jobStateNames {
		s.jobsFinished[state] = s.registry.NewCounter("rssd_sweep_jobs_finished_total",
			"Sweep jobs reaching a terminal state, by state.", telemetry.Label{Key: "state", Value: state})
	}
	s.jobPoints = map[string]*telemetry.Counter{}
	for _, outcome := range pointOutcomeNames {
		s.jobPoints[outcome] = s.registry.NewCounter("rssd_job_points_total",
			"Grid points scheduled by the coordinator, by outcome (requeued counts re-dispatches after worker failures).",
			telemetry.Label{Key: "outcome", Value: outcome})
	}
	s.gaugeJobsAct = s.registry.NewGauge("rssd_sweep_jobs_active",
		"Jobs in a non-terminal state.")
	s.gaugeJobQueue = s.registry.NewGauge("rssd_job_queue_depth",
		"Grid points waiting for an executor slot.")

	// The sweep fabric: the durable store plus the coordinator over the
	// configured worker set. No worker URLs means points execute
	// in-process through the same bounded pool /v1/run uses.
	store, err := job.Open(cfg.JobDir)
	if err != nil {
		return nil, err
	}
	var execs []job.Executor
	if len(cfg.WorkerURLs) > 0 {
		for i, u := range cfg.WorkerURLs {
			execs = append(execs, job.NewHTTPExecutor(fmt.Sprintf("worker-%d", i+1), u, cfg.WorkerSlots))
		}
	} else {
		execs = append(execs, &localExecutor{s: s})
	}
	s.coord = job.NewCoordinator(store, execs, job.Config{Observer: &coordObserver{s: s}})
	s.coord.Resume()

	s.mux = http.NewServeMux()
	// timed wraps each service handler with its per-endpoint latency
	// histogram; the handlers count their own requests (so rejection
	// reasons stay close to the rejection logic).
	timed := func(pattern, name string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			s.observeHandler(name, time.Since(start))
		})
	}
	timed("POST /v1/assemble", "assemble", s.handleAssemble)
	timed("POST /v1/run", "run", s.handleRun)
	timed("POST /v1/estimate", "estimate", s.handleEstimate)
	timed("POST /v1/jobs", "jobs", s.handleJobSubmit)
	timed("GET /v1/jobs", "jobs_list", s.handleJobList)
	timed("GET /v1/jobs/{id}", "job", s.handleJobGet)
	timed("GET /v1/jobs/{id}/events", "job_events", s.handleJobEvents)
	timed("DELETE /v1/jobs/{id}", "job_cancel", s.handleJobCancel)
	timed("GET /v1/healthz", "healthz", s.handleHealthz)
	timed("GET /metrics", "metrics", s.handleMetrics)
	timed("GET /debug/flightrecorder", "flightrecorder", s.handleFlightRecorder)
	if cfg.EnablePprof {
		// Deliberately mounted raw: profiling traffic bypasses the
		// request-counting and latency instrumentation above.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Spans exposes the service span flight recorder, for the drain path
// in cmd/rssd to dump before exit.
func (s *Server) Spans() *span.ServiceRecorder { return s.spans }

// Coordinator exposes the sweep-fabric coordinator (cmd/rssd logs
// resume counts; tests drive crash-resume through it).
func (s *Server) Coordinator() *job.Coordinator { return s.coord }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Connection timeouts of the listener HTTPServer returns. A request
// body must arrive within readTimeout. net/http clears that read
// deadline once the body is read, when it starts watching the
// connection for a close (connReader.startBackgroundRead), so it never
// cancels a running handler's context (TestRunOutlivesReadTimeout,
// TestJobEventsOutliveWriteTimeout). A response must be written
// within writeSlack past the longest deadline a request may ask for
// (Config.MaxTimeout), so no admitted simulation loses its answer to
// the timeout. The job events stream lifts its write deadline.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeSlack        = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer returns an http.Server serving Handler on addr with every
// connection timeout set.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      s.cfg.MaxTimeout + writeSlack,
		IdleTimeout:       idleTimeout,
	}
}

// StartDrain flips the server into draining mode: job endpoints answer
// 503 from now on while in-flight requests finish undisturbed. Call it
// right before http.Server.Shutdown, which handles the actual waiting.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the sweep fabric: the coordinator cancels in-flight
// points (they stay pending in the store for the next boot's resume)
// and the store releases its file handles. Call it after the HTTP
// server has shut down.
func (s *Server) Close() error {
	s.coord.Close()
	return s.coord.Store().Close()
}

// --- metric update helpers (all take mmu) ---

func (s *Server) countRequest(handler string) {
	s.mmu.Lock()
	s.requests[handler].Inc()
	s.mmu.Unlock()
}

func (s *Server) countFailure(handler string) {
	s.mmu.Lock()
	s.failures[handler].Inc()
	s.mmu.Unlock()
}

func (s *Server) countRejected(reason string) {
	s.mmu.Lock()
	if c, ok := s.rejected[reason]; ok {
		c.Inc()
	}
	s.mmu.Unlock()
}

func (s *Server) observeJob(kind string, elapsed time.Duration) {
	s.mmu.Lock()
	s.jobs[kind].Observe(elapsed.Milliseconds())
	s.mmu.Unlock()
}

func (s *Server) observeQueueWait(kind string, elapsed time.Duration) {
	s.mmu.Lock()
	s.queueWait[kind].Observe(elapsed.Microseconds())
	s.mmu.Unlock()
}

func (s *Server) observeHandler(name string, elapsed time.Duration) {
	s.mmu.Lock()
	s.handlerDur[name].Observe(elapsed.Microseconds())
	s.mmu.Unlock()
}

func (s *Server) countCache(hit bool) {
	s.mmu.Lock()
	if hit {
		s.cacheHits.Inc()
	} else {
		s.cacheMisses.Inc()
	}
	s.mmu.Unlock()
}

// --- request plumbing ---

// decode reads a size-limited JSON body into v. Unknown fields and
// trailing data are errors, so typos in request schemas surface as 400s
// instead of silently selecting defaults.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) || errors.Is(err, repro.ErrUnknownPolicy) {
			return err
		}
		return api.InvalidRequestf("decoding body: %v", err)
	}
	if dec.More() {
		return api.InvalidRequestf("trailing data after JSON body")
	}
	return nil
}

// writeJSON writes a 2xx JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to tell the client
}

// fail classifies err, counts it, and writes the error envelope.
func (s *Server) fail(w http.ResponseWriter, handler string, err error) {
	status, apiErr := api.Classify(err)
	s.countFailure(handler)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(api.Envelope{Error: apiErr}) //nolint:errcheck
}

// timeout resolves a request's deadline from its TimeoutMs field.
func (s *Server) timeout(ms int) (time.Duration, error) {
	if ms < 0 {
		return 0, api.InvalidRequestf("timeoutMs must be non-negative, got %d", ms)
	}
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// loadedProgram is a program ready to run: an assembled unit (source
// path, shared via the cache) or a bare program (binary words path).
type loadedProgram struct {
	unit   *repro.Unit
	prog   repro.Program
	cached bool
}

// newMachine builds a fresh machine for one job. Units and programs are
// read-only at run time, so concurrent jobs share them safely — each
// machine gets its own memory image.
func (lp loadedProgram) newMachine(opt repro.Options) *repro.Machine {
	if lp.unit != nil {
		return repro.NewMachineFromUnit(lp.unit, opt)
	}
	return repro.NewMachine(lp.prog, opt)
}

// newCluster builds a fresh multi-core cluster for one job: every core
// runs the program against the shared reconfigurable fabric, each with
// its own memory image.
func (lp loadedProgram) newCluster(opt repro.Options) *cluster.Machine {
	c := cluster.New(lp.program(), opt)
	if lp.unit != nil {
		for k := 0; k < c.Cores(); k++ {
			lp.unit.Apply(c.Core(k).Processor().Memory())
		}
	}
	return c
}

// program returns the instructions in either form.
func (lp loadedProgram) program() repro.Program {
	if lp.unit != nil {
		return lp.unit.Program
	}
	return lp.prog
}

// load resolves the request's program: source is assembled through the
// cache, words are decoded directly (already cheap and canonical).
func (s *Server) load(source string, words []uint32) (loadedProgram, error) {
	switch {
	case source != "" && len(words) > 0:
		return loadedProgram{}, api.InvalidRequestf("source and words are mutually exclusive")
	case source != "":
		if unit, ok := s.cache.get(source); ok {
			s.countCache(true)
			return loadedProgram{unit: unit, cached: true}, nil
		}
		unit, err := repro.AssembleUnit(source)
		if err != nil {
			return loadedProgram{}, err
		}
		s.countCache(false)
		s.cache.put(source, unit)
		return loadedProgram{unit: unit}, nil
	case len(words) > 0:
		prog, err := repro.DecodeProgram(words)
		if err != nil {
			return loadedProgram{}, api.InvalidRequestf("decoding words: %v", err)
		}
		return loadedProgram{prog: prog}, nil
	default:
		return loadedProgram{}, api.InvalidRequestf("one of source or words is required")
	}
}

// resolveSpec validates a RunSpec and fills budget defaults in place.
func (s *Server) resolveSpec(spec *api.RunSpec) error {
	if err := spec.Options().Validate(); err != nil {
		return err
	}
	switch {
	case spec.MaxCycles < 0:
		return fmt.Errorf("maxCycles must be non-negative, got %d: %w",
			spec.MaxCycles, repro.ErrInvalidParams)
	case spec.MaxCycles == 0:
		spec.MaxCycles = s.cfg.DefaultMaxCycles
	case spec.MaxCycles > s.cfg.MaxCyclesCap:
		spec.MaxCycles = s.cfg.MaxCyclesCap
	}
	return nil
}

// simulate runs one simulation to completion under ctx and renders its
// report. The caller must already hold a worker slot. req and point feed
// the worker-execution span of the service flight recorder (point is -1
// outside jobs). A spec with Cores > 1 runs a multi-core cluster and
// reports an api.ClusterReport; timing, spans, the deadline trigger and
// metrics are the same for both machines. A panic in the simulator is
// recorded with its stack in the flight recorder and returned as an
// error, which classifies as internal.
func (s *Server) simulate(ctx context.Context, lp loadedProgram, spec api.RunSpec, kind string, req uint64, point int) (report json.RawMessage, elapsedMs float64, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.spans.TriggerPanic(req, kind, point, start, time.Now(), r, debug.Stack())
			report, err = nil, fmt.Errorf("simulation panicked: %v", r)
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun()
	}
	opt := spec.Options()
	var (
		machines []*repro.Machine
		run      func() error
		render   func() ([]byte, error)
	)
	if spec.Params.Cores > 1 {
		c := lp.newCluster(opt)
		for k := 0; k < c.Cores(); k++ {
			machines = append(machines, c.Core(k))
		}
		run = func() error { _, err := c.RunContext(ctx, spec.MaxCycles); return err }
		render = func() ([]byte, error) { return clusterReport(c) }
	} else {
		m := lp.newMachine(opt)
		machines = []*repro.Machine{m}
		run = func() error { _, err := m.RunContext(ctx, spec.MaxCycles); return err }
		render = m.ReportJSON
	}
	start = time.Now()
	err = run()
	elapsed := time.Since(start)
	s.observeJob(kind, elapsed)
	name := "execute"
	if point >= 0 {
		name = "point"
	}
	s.spans.Record(req, name, kind, point, start, start.Add(elapsed))
	if errors.Is(err, context.DeadlineExceeded) {
		// The service-side flight-recorder anomaly trigger.
		s.spans.TriggerDeadline(req, kind, point, start, start.Add(elapsed))
	}
	for _, m := range machines {
		s.accountMachine(m)
	}
	elapsedMs = float64(elapsed) / float64(time.Millisecond)
	if err != nil {
		return nil, elapsedMs, err
	}
	report, err = render()
	if err != nil {
		return nil, elapsedMs, fmt.Errorf("rendering report: %w", err)
	}
	return report, elapsedMs, nil
}

// clusterReport renders a finished cluster as the api.ClusterReport
// document: cluster aggregates plus one scalar report per core.
func clusterReport(c *cluster.Machine) ([]byte, error) {
	stats := c.Stats()
	rep := api.ClusterReport{
		Cluster: api.ClusterSummary{
			Cores:        c.Cores(),
			Mode:         stats.Mode,
			Arbiter:      stats.Arbiter,
			ModeSwitches: stats.ModeSwitches,
			Cycles:       stats.Cycles,
			AggregateIPC: stats.AggregateIPC(),
			Fairness:     stats.Fairness(),
		},
	}
	for k := 0; k < c.Cores(); k++ {
		coreReport, err := c.Core(k).ReportJSON()
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", k, err)
		}
		rep.Cores = append(rep.Cores, coreReport)
	}
	return json.Marshal(rep)
}

// accountMachine lands one finished machine's steering-cache and
// prefetch counters on the service metrics; a cluster lands each core.
func (s *Server) accountMachine(m *repro.Machine) {
	if hits, misses, ok := m.SteeringCacheStats(); ok {
		s.mmu.Lock()
		s.steerHits.Add(uint64(hits))
		s.steerMisses.Add(uint64(misses))
		s.mmu.Unlock()
	}
	if ps, ok := m.PrefetchStats(); ok {
		s.mmu.Lock()
		s.prefetch["spans_issued"].Add(uint64(ps.Issued))
		s.prefetch["confirmed"].Add(uint64(ps.Confirmed))
		s.prefetch["mispredicted"].Add(uint64(ps.Mispredicted))
		s.prefetch["cancelled"].Add(uint64(ps.Cancelled))
		s.prefetch["wasted_spans"].Add(uint64(ps.WastedSpans))
		s.prefetch["phase_changes"].Add(uint64(ps.PhaseChanges))
		s.mmu.Unlock()
	}
}

// admitJob performs queue admission for a synchronous job endpoint:
// draining check first, then a non-blocking backlog reservation. The
// returned release func is non-nil exactly when err is nil.
func (s *Server) admitJob() (func(), error) {
	if s.draining.Load() {
		s.countRejected(api.CodeDraining)
		return nil, api.ErrDraining
	}
	if !s.pool.admit() {
		s.countRejected(api.CodeQueueFull)
		return nil, api.ErrQueueFull
	}
	return s.pool.leave, nil
}

// --- handlers ---

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	s.countRequest("assemble")
	var req api.AssembleRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, "assemble", err)
		return
	}
	if req.Source == "" {
		s.fail(w, "assemble", api.InvalidRequestf("source is required"))
		return
	}
	lp, err := s.load(req.Source, nil)
	if err != nil {
		s.fail(w, "assemble", err)
		return
	}
	words, err := repro.EncodeProgram(lp.unit.Program)
	if err != nil {
		s.fail(w, "assemble", fmt.Errorf("encoding program: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, api.AssembleResponse{
		Instructions: len(lp.unit.Program),
		Words:        words,
		Disassembly:  repro.Disassemble(lp.unit.Program),
		Cached:       lp.cached,
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.countRequest("run")
	var req api.RunRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, "run", err)
		return
	}
	d, err := s.timeout(req.TimeoutMs)
	if err != nil {
		s.fail(w, "run", err)
		return
	}
	lp, err := s.load(req.Source, req.Words)
	if err != nil {
		s.fail(w, "run", err)
		return
	}
	spec := req.RunSpec
	if err := s.resolveSpec(&spec); err != nil {
		s.fail(w, "run", err)
		return
	}
	leave, err := s.admitJob()
	if err != nil {
		s.fail(w, "run", err)
		return
	}
	defer leave()

	reqID := s.spans.NextRequest()
	admitted := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.fail(w, "run", err)
		return
	}
	acquired := time.Now()
	s.observeQueueWait("run", acquired.Sub(admitted))
	s.spans.Record(reqID, "queue-wait", "run", -1, admitted, acquired)
	report, elapsedMs, err := func() (json.RawMessage, float64, error) {
		defer s.pool.release()
		return s.simulate(ctx, lp, spec, "run", reqID, -1)
	}()
	if err != nil {
		s.fail(w, "run", err)
		return
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, api.RunResponse{Report: report, ElapsedMs: elapsedMs, Cached: lp.cached})
	s.spans.Record(reqID, "encode", "run", -1, encodeStart, time.Now())
}

// handleEstimate answers POST /v1/estimate from the analytic queueing
// model instead of the simulator. A solve costs microseconds, so the
// handler passes admission control (draining and backlog checks apply
// as everywhere) but never takes a worker slot — estimates stay cheap
// and available while every worker is busy simulating.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.countRequest("estimate")
	var req api.EstimateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, "estimate", err)
		return
	}
	lp, err := s.load(req.Source, req.Words)
	if err != nil {
		s.fail(w, "estimate", err)
		return
	}
	spec := req.RunSpec
	if err := s.resolveSpec(&spec); err != nil {
		s.fail(w, "estimate", err)
		return
	}
	leave, err := s.admitJob()
	if err != nil {
		s.fail(w, "estimate", err)
		return
	}
	defer leave()

	start := time.Now()
	est, err := repro.EstimateIPC(lp.program(), spec.Options())
	solve := time.Since(start)
	if err != nil {
		s.fail(w, "estimate", err)
		return
	}
	s.countEstimate(est.Bottleneck, solve)
	writeJSON(w, http.StatusOK, api.EstimateResponse{
		Estimate:  est,
		ElapsedUs: float64(solve) / float64(time.Microsecond),
		Cached:    lp.cached,
	})
}

// countEstimate lands one served estimate on the metrics: the
// per-bottleneck counter and the solve-time histogram.
func (s *Server) countEstimate(bottleneck string, solve time.Duration) {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	if c, ok := s.estimates[bottleneck]; ok {
		c.Add(1)
	}
	s.estimateUs.Observe(solve.Microseconds())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.countRequest("healthz")
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
		s.countFailure("healthz")
	}
	writeJSON(w, code, api.HealthResponse{
		Status:   status,
		Workers:  s.pool.workers(),
		Running:  s.pool.running(),
		Admitted: s.pool.admitted(),
	})
}

// handleFlightRecorder serves the service-span flight ring as JSON: the
// last N request lifecycle spans (queue-wait, execute, encode, job
// points) plus deadline-trigger counters. It reads a snapshot under the
// recorder's own lock, so it is safe to hit while requests are in flight.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	s.countRequest("flightrecorder")
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteJSON(w) //nolint:errcheck // client went away; nothing to do
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.countRequest("metrics")
	s.mmu.Lock()
	defer s.mmu.Unlock()
	s.gaugeRun.Set(int64(s.pool.running()))
	s.gaugeQueued.Set(int64(s.pool.admitted()))
	s.gaugeJobsAct.Set(int64(s.coord.Active()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.Render(w) //nolint:errcheck // client went away; nothing to do
}
