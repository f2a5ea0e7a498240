// Tests for the jobs surface of the server: submit/status/events/cancel
// over the typed client, the jobs metrics, and the crash-resume
// guarantee at the HTTP level — a server restarted over the same job
// directory completes an interrupted job with a byte-identical result
// set.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/client"
)

// busySource loops long enough per point (~at the default machine) that
// a multi-point job is reliably still in flight when a test interrupts
// it, but short enough that suites stay fast.
const busySource = `
	li r1, 60000
loop:	addi r1, r1, -1
	mul r2, r1, r1
	bne r1, r0, loop
	halt
`

// shortLoopSource is busySource cut to 300 iterations: long enough for
// the random policy's seed to shape the run, short enough to repeat.
const shortLoopSource = `
	li r1, 300
loop:	addi r1, r1, -1
	mul r2, r1, r1
	bne r1, r0, loop
	halt
`

// jobPoints builds an n-point grid varying the seed (the program is
// deterministic; distinct seeds keep the points distinguishable).
func jobPoints(n int) []api.RunSpec {
	pts := make([]api.RunSpec, n)
	for i := range pts {
		pts[i] = api.RunSpec{Seed: int64(i), MaxCycles: 2_000_000}
	}
	return pts
}

func TestJobSubmitAndWait(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: haltingSource,
		Points: jobPoints(4),
		Label:  "suite",
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if created.ID == "" || created.Total != 4 {
		t.Fatalf("created = %+v, want id and total 4", created)
	}

	status, err := c.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 4 || status.Failed != 0 {
		t.Fatalf("status = %+v, want done 4/0 failed", status)
	}
	if status.Label != "suite" {
		t.Errorf("label = %q, want suite", status.Label)
	}
	for i, p := range status.Points {
		if p.Index != i || p.Worker != "local" || len(p.Report) == 0 {
			t.Errorf("point %d = %+v, want local worker with report", i, p)
		}
	}

	// The fabric's lifecycle landed on the metrics registry.
	text := metricsText(t, ts.URL)
	for _, want := range []string{
		`rssd_sweep_jobs_submitted_total 1`,
		`rssd_sweep_jobs_finished_total{state="done"} 1`,
		`rssd_job_points_total{outcome="done"} 4`,
		`rssd_sweep_jobs_active 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobPointsMatchRun pins the job path to the synchronous one: every
// point of a job carries exactly the report a /v1/run of the same
// source and spec returns. Odd points run the random policy, so each
// point's seed reaches its report. Reports are compared compacted,
// because the response encoder indents each one to its own nesting
// depth.
func TestJobPointsMatchRun(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	points := jobPoints(5)
	for i := 1; i < len(points); i += 2 {
		points[i].Policy = repro.PolicyRandom
	}
	created, err := c.SubmitJob(ctx, api.JobRequest{Source: shortLoopSource, Points: points})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	status, err := c.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Failed != 0 || len(status.Points) != len(points) {
		t.Fatalf("status = %+v, want done with %d points, 0 failed", status, len(points))
	}
	for i, spec := range points {
		run, err := c.Run(ctx, api.RunRequest{Source: shortLoopSource, RunSpec: spec})
		if err != nil {
			t.Fatalf("run point %d: %v", i, err)
		}
		var got, want bytes.Buffer
		if err := json.Compact(&got, status.Points[i].Report); err != nil {
			t.Fatalf("point %d: job report: %v", i, err)
		}
		if err := json.Compact(&want, run.Report); err != nil {
			t.Fatalf("point %d: run report: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("point %d: job report diverges from /v1/run:\n  job: %s\n  run: %s", i, got.Bytes(), want.Bytes())
		}
	}
}

// TestJobEventsBeforeFinish pins the streaming guarantee: with one
// worker slot and a deliberately slow final point, the events stream
// delivers earlier per-point results while the job is still running.
func TestJobEventsBeforeFinish(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	points := jobPoints(2)
	points = append(points, api.RunSpec{Seed: 99, MaxCycles: 30_000_000}) // the slow tail
	created, err := c.SubmitJob(ctx, api.JobRequest{Source: busySource, Points: points})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer stream.Close()

	// Read the first per-point result off the live stream, then ask for
	// status: the slow tail point guarantees the job has not finished.
	var first api.JobEvent
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventPoint {
			first = ev
			break
		}
	}
	if first.Point == nil || len(first.Point.Report) == 0 {
		t.Fatalf("first point event carries no report: %+v", first)
	}
	status, err := c.Job(ctx, created.ID, false)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.State.Terminal() {
		t.Errorf("job already %s when the first event arrived; stream did not beat completion", status.State)
	}

	// Drain to the end: the stream must finish with a terminal state event.
	sawState := false
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventState && ev.State.Terminal() {
			sawState = true
		}
	}
	if !sawState {
		t.Error("stream ended without a terminal state event")
	}
}

func TestJobCancel(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: spinSource,
		Points: []api.RunSpec{{MaxCycles: 500_000_000}, {MaxCycles: 500_000_000}},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	status, err := c.CancelJob(ctx, created.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if status.State != api.JobCancelled {
		t.Fatalf("state = %s, want cancelled", status.State)
	}
	// Idempotent: cancelling again answers the same terminal status.
	if again, err := c.CancelJob(ctx, created.ID); err != nil || again.State != api.JobCancelled {
		t.Errorf("second cancel = %+v, %v", again, err)
	}
	// The events stream of a cancelled job replays and closes.
	stream, err := c.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events after cancel: %v", err)
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventState && ev.State != api.JobCancelled {
			t.Errorf("state event = %+v, want cancelled", ev)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"status": func() error { _, err := c.Job(ctx, "j-nope", false); return err },
		"cancel": func() error { _, err := c.CancelJob(ctx, "j-nope"); return err },
		"events": func() error { _, err := c.StreamEvents(ctx, "j-nope"); return err },
	} {
		apiErr := apiError(t, call())
		if apiErr.Status != http.StatusNotFound || apiErr.Code != api.CodeNotFound {
			t.Errorf("%s: got %d/%s, want 404/%s", name, apiErr.Status, apiErr.Code, api.CodeNotFound)
		}
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxJobPoints: 2})
	ctx := context.Background()
	cases := []struct {
		name     string
		req      api.JobRequest
		wantCode string
	}{
		{"no points", api.JobRequest{Source: haltingSource}, api.CodeInvalidRequest},
		{"too many points", api.JobRequest{Source: haltingSource, Points: jobPoints(3)}, api.CodeInvalidRequest},
		{"bad program", api.JobRequest{Source: "bogus r1\n", Points: jobPoints(1)}, api.CodeAssembleError},
		{"no program", api.JobRequest{Points: jobPoints(1)}, api.CodeInvalidRequest},
		{"negative point timeout", api.JobRequest{Source: haltingSource, Points: jobPoints(1), PointTimeoutMs: -1}, api.CodeInvalidRequest},
		{"bad point", api.JobRequest{Source: haltingSource, Points: []api.RunSpec{{MaxCycles: -1}}}, api.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.SubmitJob(ctx, tc.req)
			apiErr := apiError(t, err)
			if apiErr.Code != tc.wantCode {
				t.Errorf("code = %s, want %s (%v)", apiErr.Code, tc.wantCode, apiErr)
			}
		})
	}
}

func TestJobListAndActiveCap(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, MaxActiveJobs: 1})
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{
		Source: spinSource,
		Points: []api.RunSpec{{MaxCycles: 500_000_000}},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The cap counts non-terminal jobs: a second submission is rejected
	// with 503 queue_full until the first finishes.
	_, err = c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(1)})
	apiErr := apiError(t, err)
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("over-cap submit = %d/%s, want 503/%s", apiErr.Status, apiErr.Code, api.CodeQueueFull)
	}

	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Fatalf("list = %+v, want exactly job %s", list.Jobs, created.ID)
	}
	if _, err := c.CancelJob(ctx, created.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// Terminal now — the cap frees up.
	if _, err := c.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(1)}); err != nil {
		t.Errorf("submit after cancel: %v", err)
	}
}

// TestJobCrashResumeByteIdentical is the tentpole acceptance test at
// the HTTP level: interrupt a server mid-job, bring a new server up on
// the same job directory, and the resumed job's full result set must be
// byte-identical to an uninterrupted run of the same grid.
func TestJobCrashResumeByteIdentical(t *testing.T) {
	spec := api.JobRequest{Source: busySource, Points: jobPoints(6), Label: "resume-me"}
	ctx := context.Background()

	// Baseline: the same grid, uninterrupted, on a volatile server.
	_, _, base := newTestServer(t, Config{Workers: 1})
	baseCreated, err := base.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	baseline, err := base.WaitJob(ctx, baseCreated.ID, nil)
	if err != nil || baseline.State != api.JobDone {
		t.Fatalf("baseline: %+v, %v", baseline, err)
	}

	// Interrupted run: durable store, one worker; stop the server after
	// the first point lands.
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := newHTTPServer(t, s1)
	c1 := client.New(ts1, client.WithRetry(0, -1))
	created, err := c1.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c1.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if ev.Type == api.EventPoint {
			break
		}
	}
	stream.Close()
	s1.Close() // the "crash": in-flight point dropped, store released

	// Restart over the same directory: New resumes incomplete jobs.
	s2, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	ts2 := newHTTPServer(t, s2)
	c2 := client.New(ts2, client.WithRetry(0, -1))
	resumed, err := c2.WaitJob(ctx, created.ID, nil)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if resumed.State != api.JobDone || resumed.Done != len(spec.Points) {
		t.Fatalf("resumed job = %+v, want done %d points", resumed, len(spec.Points))
	}
	if resumed.Label != "resume-me" {
		t.Errorf("label lost across restart: %q", resumed.Label)
	}

	if len(resumed.Points) != len(baseline.Points) {
		t.Fatalf("resumed has %d results, baseline %d", len(resumed.Points), len(baseline.Points))
	}
	for i := range resumed.Points {
		got, want := resumed.Points[i], baseline.Points[i]
		if got.Index != want.Index {
			t.Fatalf("result order diverged at %d: %d vs %d", i, got.Index, want.Index)
		}
		if !bytes.Equal(got.Report, want.Report) {
			t.Errorf("point %d: resumed report differs from uninterrupted run\nresumed:  %s\nbaseline: %s",
				got.Index, got.Report, want.Report)
		}
		if got.Error != nil || want.Error != nil {
			t.Errorf("point %d: unexpected errors (resumed %v, baseline %v)", got.Index, got.Error, want.Error)
		}
	}
}

// TestJobSurvivesRestartWhenComplete checks a finished job is served
// (with results) by a later server over the same directory.
func TestJobDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c1 := client.New(newHTTPServer(t, s1), client.WithRetry(0, -1))
	created, err := c1.SubmitJob(ctx, api.JobRequest{Source: haltingSource, Points: jobPoints(2)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	finished, err := c1.WaitJob(ctx, created.ID, nil)
	if err != nil || finished.State != api.JobDone {
		t.Fatalf("first run: %+v, %v", finished, err)
	}
	s1.Close()

	s2, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	c2 := client.New(newHTTPServer(t, s2), client.WithRetry(0, -1))
	reloaded, err := c2.Job(ctx, created.ID, true)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if reloaded.State != api.JobDone || len(reloaded.Points) != 2 {
		t.Fatalf("reloaded = %+v, want done with 2 results", reloaded)
	}
	for i := range reloaded.Points {
		if !bytes.Equal(reloaded.Points[i].Report, finished.Points[i].Report) {
			t.Errorf("point %d report changed across restart", i)
		}
	}
}

// sweep submits req as a job and waits for it to finish with a result
// for every point.
func sweep(c *client.Client, req api.JobRequest) (api.JobStatus, error) {
	ctx := context.Background()
	created, err := c.SubmitJob(ctx, req)
	if err != nil {
		return api.JobStatus{}, err
	}
	status, err := c.WaitJob(ctx, created.ID, nil)
	if err == nil && (status.State != api.JobDone || len(status.Points) != len(req.Points)) {
		err = fmt.Errorf("job %s: %s with %d of %d results", created.ID, status.State, len(status.Points), len(req.Points))
	}
	return status, err
}

// TestSweep runs one point per policy as a job: every result lands in
// index order with its policy and a report.
func TestSweep(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 4})
	req := api.JobRequest{Source: haltingSource}
	for _, p := range repro.Policies() {
		req.Points = append(req.Points, api.RunSpec{Policy: p})
	}
	status, err := sweep(c, req)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, p := range status.Points {
		if p.Index != i || p.Policy != req.Points[i].Policy.String() || p.Error != nil || len(p.Report) == 0 {
			t.Errorf("point %d = %+v, want policy %s with a report", i, p, req.Points[i].Policy)
		}
	}
}

// TestSweepConcurrent runs several sweep jobs at once over a 2-worker
// pool: results must stay complete and ordered while points of
// different jobs interleave on the shared slots (the -race run is the
// real check).
func TestSweepConcurrent(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	req := api.JobRequest{
		Source: haltingSource,
		Points: []api.RunSpec{
			{Policy: policy(t, "steering")},
			{Policy: policy(t, "ffu-only")},
			{Policy: policy(t, "demand")},
		},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, err := sweep(c, req)
			if err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
			for i, p := range status.Points {
				if p.Index != i || p.Error != nil {
					t.Errorf("result %d = %+v, want index %d without error", i, p, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSweepPointErrorIsData pins point failures as data: one good point
// and one that exhausts its cycle budget, and the job still completes
// with the failure in that point's error field.
func TestSweepPointErrorIsData(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	status, err := sweep(c, api.JobRequest{
		Source: haltingSource,
		Points: []api.RunSpec{{}, {MaxCycles: 2}},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if e := status.Points[0].Error; e != nil {
		t.Errorf("point 0: unexpected error %v", e)
	}
	if e := status.Points[1].Error; e == nil || e.Code != api.CodeCycleLimit {
		t.Errorf("point 1: error = %v, want code %s", e, api.CodeCycleLimit)
	}
}

// TestSweepWithFaultRates runs a fault-rate grid as a job: the points
// with non-zero rates carry a "faults" block in their reports, the
// fault-free point does not.
func TestSweepWithFaultRates(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 2})
	fault := func(rate float64) repro.Params {
		return repro.Params{FaultTransientRate: rate, FaultSeed: 11, FaultScrubInterval: 64}
	}
	status, err := sweep(c, api.JobRequest{
		Source: faultySource,
		Points: []api.RunSpec{{}, {Params: fault(0.002)}, {Params: fault(0.01)}},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, p := range status.Points {
		if p.Error != nil {
			t.Fatalf("point %d: unexpected error %v", i, p.Error)
		}
		_, hasFaults := report(t, p.Report)["faults"]
		if wantFaults := i > 0; hasFaults != wantFaults {
			t.Errorf("point %d: faults block present = %v, want %v", i, hasFaults, wantFaults)
		}
	}
}

// TestResumeRetiredSweepJob boots a server over a job dir written by an
// older rssd: one job of kind "sweep" from the retired synchronous
// /v1/sweep, whose second point carries a latency table that passed the
// Validate of its day but panics in the machine. The job resumes and
// completes — the good point with a report, the poison point as an
// internal error — and the server keeps serving.
func TestResumeRetiredSweepJob(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(`{"id": "j-retired-sweep", "spec": {"label": "sweep", "kind": "sweep",
		"program": {"source": %q},
		"points": [
			{"policy": "steering", "params": {}, "maxCycles": 2000000},
			{"policy": "steering", "params": {"Latencies": {"IntMul": 3}}, "maxCycles": 2000000}
		]}}`, haltingSource)
	if err := os.WriteFile(filepath.Join(dir, "j-retired-sweep.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JobDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	c := client.New(newHTTPServer(t, s), client.WithRetry(0, -1))
	ctx := context.Background()
	status, err := c.WaitJob(ctx, "j-retired-sweep", nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status.State != api.JobDone || status.Done != 2 || status.Failed != 1 || len(status.Points) != 2 {
		t.Fatalf("status = %+v, want done 2 points, 1 failed", status)
	}
	if p := status.Points[0]; p.Error != nil || len(p.Report) == 0 {
		t.Errorf("point 0 = %+v, want a report", p)
	}
	if e := status.Points[1].Error; e == nil || e.Code != api.CodeInternal {
		t.Errorf("point 1 error = %v, want code %s", e, api.CodeInternal)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Errorf("healthz after the poison point: %v", err)
	}
}

// newHTTPServer mounts a prebuilt Server on an httptest listener and
// returns its base URL; used by the restart tests that manage the
// Server lifecycle themselves.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestJobEventsOutliveWriteTimeout serves through HTTPServer's listener
// with its read and write timeouts cut far below the job's length: the
// events stream still delivers every point and the terminal state,
// while a plain request on the same listener is answered as usual.
func TestJobEventsOutliveWriteTimeout(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Each point takes at least 60 ms, so the 3-point job outlives the
	// 50 ms timeouts several times over.
	s.beforeRun = func() { time.Sleep(60 * time.Millisecond) }
	srv := s.HTTPServer("")
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("HTTPServer leaves a timeout unset: %+v", srv)
	}
	if srv.WriteTimeout <= s.cfg.MaxTimeout {
		t.Errorf("WriteTimeout %v does not outlast the longest request deadline %v", srv.WriteTimeout, s.cfg.MaxTimeout)
	}
	srv.ReadTimeout = 50 * time.Millisecond
	srv.WriteTimeout = 50 * time.Millisecond
	c := serveHTTPServer(t, s, srv)
	ctx := context.Background()

	created, err := c.SubmitJob(ctx, api.JobRequest{Source: shortLoopSource, Points: jobPoints(3)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	stream, err := c.StreamEvents(ctx, created.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer stream.Close()
	start := time.Now()
	points := 0
	var last api.JobEvent
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream cut after %v and %d point(s): %v", time.Since(start), points, err)
		}
		if ev.Type == api.EventPoint {
			points++
		}
		last = ev
	}
	if points != 3 || last.Type != api.EventState || last.State != api.JobDone {
		t.Errorf("stream ended with %d point(s) and last event %+v, want 3 points then done", points, last)
	}
	if elapsed := time.Since(start); elapsed <= srv.WriteTimeout {
		t.Errorf("stream lasted %v, not past the %v read and write timeouts", elapsed, srv.WriteTimeout)
	}
	if _, err := c.Job(ctx, created.ID, false); err != nil {
		t.Errorf("status after the stream: %v", err)
	}
}
