package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/server"
)

// clients is the closed-loop client count; it matches the 2 vCPUs the
// benchmark is tuned on, so GOMAXPROCS bounds the client goroutines too.
const clients = 2

// requestTimeout bounds any one call into rssd.
const requestTimeout = 60 * time.Second

// service is an in-process rssd on a loopback listener, plus a client
// that does not retry, so a refused request counts as a failure.
type service struct {
	srv       *server.Server
	hs        *http.Server
	transport *http.Transport
	client    *client.Client
	served    chan error
}

// startService boots rssd with default settings; a non-empty jobDir
// makes its jobs durable.
func startService(jobDir string) (*service, error) {
	srv, err := server.New(server.Config{JobDir: jobDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		served:    make(chan error, 1),
	}
	s.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: s.transport}), client.WithRetry(0, -1))
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, and shuts
// the job coordinator down.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// slots is how many points rssd's local executor runs at once.
func (s *service) slots() int { return s.srv.Coordinator().Executors()[0].Slots() }

// runJob submits one job, waits for it on its events stream, and
// returns what came back with the job's makespan.
func (s *service) runJob(req api.JobRequest) jobSample {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	start := time.Now()
	created, err := s.client.SubmitJob(ctx, req)
	var st api.JobStatus
	if err == nil {
		st, err = s.client.WaitJob(ctx, created.ID, nil)
	}
	js := newJobSample(req, st, err)
	js.makespan = time.Since(start)
	return js
}

// runSplit splits /v1/run round trips into simulation and the rest.
type runSplit struct {
	rtts, sims, overheads []float64
	cached, rejected      int
}

func (r *runSplit) add(rtt time.Duration, simMs float64, cached bool) {
	ms := float64(rtt) / float64(time.Millisecond)
	r.rtts = append(r.rtts, ms)
	r.sims = append(r.sims, simMs)
	r.overheads = append(r.overheads, ms-simMs)
	if cached {
		r.cached++
	}
}

func (r *runSplit) record(m map[string]float64) {
	m["server.run_rtt_ms"] = median(r.rtts)
	m["server.sim_ms"] = median(r.sims)
	m["server.overhead_ms"] = median(r.overheads)
	m["server.cache_hit_ratio"] = float64(r.cached) / float64(max(len(r.rtts), 1))
	m["server.rejected"] = float64(r.rejected)
}

// jobCost is the jobs fabric's cost per point: the executor time jobs
// held (makespan x slots) less the simulation time their points report.
type jobCost struct {
	slots                    int
	busyMs, pointMs          float64
	points, requeues, failed int
}

func (c *jobCost) add(s jobSample) {
	c.busyMs += float64(s.makespan) / float64(time.Millisecond) * float64(c.slots)
	for _, p := range s.points {
		c.pointMs += p.simMs
	}
	c.points += len(s.points)
	c.requeues += s.requeues
	c.failed += s.failed
}

func (c *jobCost) record(m map[string]float64) {
	m["job.overhead_ms_per_point"] = (c.busyMs - c.pointMs) / float64(max(c.points, 1))
	m["job.requeues"] = float64(c.requeues)
	m["job.failed_points"] = float64(c.failed)
}

// rejected reports whether rssd refused the request at admission.
func rejected(err error) bool {
	var e *api.Error
	return errors.As(err, &e) && e.Status == http.StatusServiceUnavailable
}

// rssd-mixed inputs: short kernels sent as source (assembly-cache hits
// after warm-up) and short unique synthetic programs (misses).
var (
	hitKernels  = []string{"checksum", "vecmax", "fib", "gcdbatch", "dot", "memcpy", "saxpy", "histogram", "transpose", "recfib"}
	hitPolicies = []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch}
)

const (
	missLen        = 400
	missPeriod     = 100
	hitShare       = 0.70
	missShare      = 0.15 // the rest are estimates
	windowsPerSeed = 1000 // spaces the RNG streams of successive windows
)

type rssdMixed struct {
	svc   *service
	hits  []*op
	seed  int64
	exp   *expectations
	round int64 // windows run so far
}

func newRSSDMixed(c cfg, repeat int) (*rssdMixed, error) {
	b := &rssdMixed{seed: c.seed, exp: c.exp}
	for _, name := range hitKernels {
		k := repro.KernelByName(name)
		if k == nil {
			return nil, fmt.Errorf("kernel %q not found", name)
		}
		for _, p := range hitPolicies {
			b.hits = append(b.hits, &op{name: name + "/" + p.String(), source: k.Source, spec: api.RunSpec{Policy: p}})
		}
	}
	svc, err := startService("")
	if err != nil {
		return nil, err
	}
	b.svc = svc
	// Warm the assembly cache with every hit source, once per source.
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for _, o := range b.hits {
		if _, err := svc.client.Run(ctx, api.RunRequest{Source: o.source, RunSpec: o.spec}); err != nil {
			svc.close()
			return nil, fmt.Errorf("warming %s: %w", o.name, err)
		}
		if o.prog == nil {
			u, err := repro.AssembleUnit(o.source)
			if err != nil {
				svc.close()
				return nil, err
			}
			o.prog = u.Program
		}
	}
	return b, nil
}

// rssdSample is one request and what came back.
type rssdSample struct {
	kind     string // "hit", "miss" or "estimate"
	hit      *op    // the kernel op of a hit or an estimate
	missSeed int64  // the program seed of a miss
	policy   repro.Policy
	rtt      time.Duration
	at       time.Duration // completion, from the window's start
	cached   bool
	simMs    float64
	rep      runReport
	est      float64
	err      error
}

func (b *rssdMixed) window(d time.Duration, tr *tracer) *window {
	w := newWindow("run_requests")
	w.aliases = map[string]string{"rssd_req_per_s": "ops_per_s", "run_p50_ms": "lat_p50_ms", "run_p90_ms": "lat_p90_ms"}
	b.round++
	per := make([][]rssdSample, clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	w.begin()
	deadline := w.start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*windowsPerSeed*clients + b.round*clients + int64(c)))
			for time.Now().Before(deadline) {
				s := b.request(ctx, rng)
				s.at = time.Since(w.start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	w.end()

	var split runSplit
	for _, ss := range per {
		for i := range ss {
			s := &ss[i]
			w.ops++
			var lat time.Duration
			if s.kind != "estimate" {
				lat = s.rtt
			}
			w.count[s.kind]++
			if s.err != nil {
				if rejected(s.err) {
					split.rejected++
				}
				w.done(s.at, 1, 0, lat)
				w.fail(fmt.Errorf("%s request: %w", s.kind, s.err))
				continue
			}
			retired, err := b.check(s)
			w.done(s.at, 1, retired, lat)
			if err != nil {
				w.fail(fmt.Errorf("%s request: %w", s.kind, err))
				continue
			}
			if s.kind != "estimate" {
				split.add(s.rtt, s.simMs, s.cached)
			}
		}
	}
	_, _, lat := w.rates()
	w.named["run_p99_ms"] = quantile(lat, 0.99)
	w.count["rejected"] = split.rejected
	if tr != nil {
		split.record(w.layer)
	}
	return w
}

// request sends one request of the mix and times its round trip.
func (b *rssdMixed) request(ctx context.Context, rng *rand.Rand) rssdSample {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var s rssdSample
	switch r := rng.Float64(); {
	case r < hitShare:
		s = rssdSample{kind: "hit", hit: b.hits[rng.Intn(len(b.hits))]}
	case r < hitShare+missShare:
		s = rssdSample{kind: "miss", missSeed: rng.Int63(), policy: hitPolicies[rng.Intn(len(hitPolicies))]}
	default:
		s = rssdSample{kind: "estimate", hit: b.hits[rng.Intn(len(b.hits))]}
	}
	source, spec := s.input()
	start := time.Now()
	if s.kind == "estimate" {
		resp, err := b.svc.client.Estimate(ctx, api.EstimateRequest{Source: source, RunSpec: spec})
		s.rtt, s.est, s.cached, s.err = time.Since(start), resp.Estimate.PredictedIPC, resp.Cached, err
		return s
	}
	resp, err := b.svc.client.Run(ctx, api.RunRequest{Source: source, RunSpec: spec})
	s.rtt = time.Since(start)
	s.cached, s.simMs, s.err = resp.Cached, resp.ElapsedMs, err
	if err == nil {
		s.rep, s.err = decodeReport(resp.Report)
	}
	return s
}

// input returns the source and spec of the request; a miss's source is
// generated again from its seed rather than kept.
func (s *rssdSample) input() (string, api.RunSpec) {
	if s.hit != nil {
		return s.hit.source, s.hit.spec
	}
	return render(missProgram(s.missSeed)), api.RunSpec{Policy: s.policy}
}

// missProgram is the unique synthetic program of one cache-miss request.
func missProgram(seed int64) repro.Program {
	return repro.Synthesize(repro.AlternatingPhases(missLen, missPeriod), seed)
}

// check compares one answer with the in-process reference and returns
// the instructions a checked run retired.
func (b *rssdMixed) check(s *rssdSample) (int64, error) {
	source, spec := s.input()
	if s.kind == "estimate" {
		want, err := b.exp.estimate(source, spec)
		if err == nil && s.est != want {
			err = fmt.Errorf("estimate ipc %v, in-process %v", s.est, want)
		}
		return 0, err
	}
	// A miss's program is unique, so its reference is not memoised.
	var want outcome
	var err error
	if s.kind == "miss" {
		want, err = serviceRun(source, spec)
	} else {
		want, err = b.exp.service(source, spec)
	}
	if err != nil {
		return 0, err
	}
	if s.kind == "miss" {
		if n := len(missProgram(s.missSeed)); want.Stats.Retired != n {
			return 0, fmt.Errorf("miss program retired %d of %d instructions", want.Stats.Retired, n)
		}
	}
	if err := s.rep.match(want); err != nil {
		return 0, err
	}
	return int64(want.Stats.Retired), nil
}

func (b *rssdMixed) refOps() []*op {
	ops := append([]*op(nil), b.hits...)
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < 4; i++ {
		prog := missProgram(rng.Int63())
		ops = append(ops, &op{name: fmt.Sprintf("miss/%d", i), prog: prog, straight: true})
	}
	return ops
}

func (b *rssdMixed) close() error { return b.svc.close() }

// jobs-grid inputs: each job is one kernel under a policy x
// reconfiguration-latency x seed grid. A job's 2 policy seeds come from
// a pool of 4 drawn from --seed, so the in-process references the
// points are checked against repeat and are simulated once each.
var (
	jobKernels   = []string{"dot", "saxpy", "memcpy", "histogram", "transpose", "recfib", "sort", "newton"}
	jobPolicies  = []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch, repro.PolicyDemand, repro.PolicyRandom}
	jobLatencies = []int{4, 16}
)

const (
	jobSeeds    = 2
	jobSeedPool = 4
)

type jobsGrid struct {
	svc   *service
	seed  int64
	exp   *expectations
	round int64
}

// jobStream draws one window's seeded sequence of jobs. Kernels come in
// seeded permutations, so every window runs about the same mix
// whatever the seed.
type jobStream struct {
	rng   *rand.Rand
	order []int // kernels still to come in the current permutation
}

func newJobsGrid(c cfg, repeat int) (*jobsGrid, error) {
	svc, err := startService(filepath.Join(c.dir, fmt.Sprintf("jobs-%d", repeat)))
	if err != nil {
		return nil, err
	}
	b := &jobsGrid{svc: svc, seed: c.seed, exp: c.exp}
	// Warm up with one small job per kernel, so the store, the
	// coordinator and the assembly cache have all run.
	for _, name := range jobKernels {
		k := repro.KernelByName(name)
		if k == nil {
			svc.close()
			return nil, fmt.Errorf("kernel %q not found", name)
		}
		s := svc.runJob(api.JobRequest{Source: k.Source, Points: []api.RunSpec{{}, {Policy: repro.PolicyPrefetch}}})
		err := s.err
		if err == nil && s.failed > 0 {
			err = fmt.Errorf("warm-up job failed %d points", s.failed)
		}
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	return b, nil
}

// next draws the stream's next job.
func (b *jobsGrid) next(js *jobStream) api.JobRequest {
	rng := js.rng
	if len(js.order) == 0 {
		js.order = rng.Perm(len(jobKernels))
	}
	k := repro.KernelByName(jobKernels[js.order[0]])
	js.order = js.order[1:]
	req := api.JobRequest{Source: k.Source, Label: k.Name}
	for s := 0; s < jobSeeds; s++ {
		seed := b.seed*jobSeedPool + rng.Int63n(jobSeedPool)
		for _, p := range jobPolicies {
			for _, lat := range jobLatencies {
				params := repro.Params{ReconfigLatency: lat}
				req.Points = append(req.Points, api.RunSpec{Policy: p, Params: params, Seed: seed})
			}
		}
	}
	return req
}

type jobSample struct {
	req      api.JobRequest
	id       string
	requeues int
	failed   int
	points   []pointSample // by point index
	makespan time.Duration
	at       time.Duration // completion, from the window's start
	err      error
}

// pointSample is one job point's result, decoded as it arrives.
type pointSample struct {
	simMs float64
	rep   runReport
	err   error
}

func newJobSample(req api.JobRequest, st api.JobStatus, err error) jobSample {
	s := jobSample{req: req, id: st.ID, requeues: st.Requeues, failed: st.Failed, err: err,
		points: make([]pointSample, len(req.Points))}
	for i := range s.points {
		s.points[i].err = fmt.Errorf("no result")
	}
	for _, p := range st.Points {
		if p.Index < 0 || p.Index >= len(s.points) {
			continue
		}
		ps := pointSample{simMs: p.ElapsedMs}
		if p.Error != nil {
			ps.err = p.Error
		} else {
			ps.rep, ps.err = decodeReport(p.Report)
		}
		s.points[p.Index] = ps
	}
	return s
}

func (b *jobsGrid) window(d time.Duration, tr *tracer) *window {
	w := newWindow("jobs")
	w.aliases = map[string]string{"job_points_per_s": "ops_per_s", "job_p50_ms": "lat_p50_ms", "job_p90_ms": "lat_p90_ms"}
	b.round++
	js := &jobStream{rng: rand.New(rand.NewSource(b.seed*windowsPerSeed + b.round))}
	var samples []jobSample
	w.begin()
	for time.Since(w.start) < d {
		s := b.svc.runJob(b.next(js))
		s.at = time.Since(w.start)
		samples = append(samples, s)
	}
	w.end()

	cost := jobCost{slots: b.svc.slots()}
	for _, s := range samples {
		n := len(s.req.Points)
		w.ops += n
		w.count["points"] += n
		if s.err != nil {
			w.fail(fmt.Errorf("job %s: %w", s.req.Label, s.err))
			w.failed += n - 1
			w.done(s.at, n, 0, s.makespan)
			continue
		}
		cost.add(s)
		retired := s.check(b.exp, func(err error) {
			if err != nil {
				w.fail(err)
			}
		})
		w.done(s.at, n, retired, s.makespan)
	}
	w.count["jobs"] = len(samples)
	if tr != nil {
		cost.record(w.layer)
	}
	return w
}

// check compares every point with the in-process reference, reports
// each point's outcome to check, and returns the instructions the
// matching points retired.
func (s jobSample) check(exp *expectations, check func(error)) int64 {
	var retired int64
	for i, p := range s.points {
		err := p.err
		var want outcome
		if err == nil {
			if want, err = exp.service(s.req.Source, s.req.Points[i]); err == nil {
				err = p.rep.match(want)
			}
		}
		if err != nil {
			check(fmt.Errorf("job %s point %d: %w", s.id, i, err))
			continue
		}
		check(nil)
		retired += int64(want.Stats.Retired)
	}
	return retired
}

// refOps are the points of the first job of the seed's sequence.
func (b *jobsGrid) refOps() []*op {
	req := b.next(&jobStream{rng: rand.New(rand.NewSource(b.seed))})
	u, err := repro.AssembleUnit(req.Source)
	if err != nil {
		return nil
	}
	ops := make([]*op, len(req.Points))
	for i, spec := range req.Points {
		ops[i] = &op{name: fmt.Sprintf("%s/%d", req.Label, i), prog: u.Program, source: req.Source, spec: spec}
	}
	return ops
}

func (b *jobsGrid) close() error { return b.svc.close() }
