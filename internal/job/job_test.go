package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// testSpec builds an n-point spec (policy left zero: the job layer
// never interprets specs, it just schedules them).
func testSpec(n int) Spec {
	spec := Spec{Kind: "job", Program: api.Program{Source: "halt\n"}}
	for i := 0; i < n; i++ {
		spec.Points = append(spec.Points, api.RunSpec{Seed: int64(i)})
	}
	return spec
}

// fakeExec is a scriptable executor: exec runs each point, health (when
// set) serves Ping.
type fakeExec struct {
	name   string
	slots  int
	exec   func(ctx context.Context, p ExecPoint) (*api.PointResult, error)
	health func(ctx context.Context) error
}

func (f *fakeExec) Name() string { return f.name }
func (f *fakeExec) Slots() int   { return f.slots }
func (f *fakeExec) Execute(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
	return f.exec(ctx, p)
}
func (f *fakeExec) Ping(ctx context.Context) error {
	if f.health == nil {
		return nil
	}
	return f.health(ctx)
}

// okResult fabricates a deterministic result for a point: the report
// depends only on the spec, like the real deterministic simulator.
func okResult(p ExecPoint) *api.PointResult {
	return &api.PointResult{
		Index:  p.Index,
		Report: []byte(fmt.Sprintf(`{"seed":%d}`, p.Spec.Seed)),
	}
}

// waitState polls until j reaches state or the deadline passes.
func waitState(t *testing.T, j *Job, state api.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != state {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestCoordinatorCompletesJob(t *testing.T) {
	st := openStore(t, "")
	exec := &fakeExec{name: "w1", slots: 2, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{exec}, Config{})
	defer c.Close()

	j, err := c.Submit(testSpec(5), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, api.JobDone)
	results := j.Results()
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Worker != "w1" || r.Attempts != 1 {
			t.Errorf("result %d = %+v, want index %d worker w1 attempts 1", i, r, i)
		}
		if want := fmt.Sprintf(`{"seed":%d}`, i); string(r.Report) != want {
			t.Errorf("result %d report = %s, want %s", i, r.Report, want)
		}
	}
}

func TestCoordinatorShardsAcrossExecutors(t *testing.T) {
	st := openStore(t, "")
	var mu sync.Mutex
	byWorker := map[string]int{}
	mk := func(name string) *fakeExec {
		return &fakeExec{name: name, slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
			mu.Lock()
			byWorker[name]++
			mu.Unlock()
			time.Sleep(time.Millisecond) // let the other worker pull too
			return okResult(p), nil
		}}
	}
	c := NewCoordinator(st, []Executor{mk("a"), mk("b")}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(12), 0)
	waitState(t, j, api.JobDone)
	mu.Lock()
	defer mu.Unlock()
	if byWorker["a"] == 0 || byWorker["b"] == 0 {
		t.Errorf("points not sharded: %v", byWorker)
	}
	if byWorker["a"]+byWorker["b"] != 12 {
		t.Errorf("executed %d points, want 12 (%v)", byWorker["a"]+byWorker["b"], byWorker)
	}
}

// TestWorkerDeathRequeuesOnSurvivor kills one executor mid-job: its
// in-flight point must requeue and the survivor must drain everything.
func TestWorkerDeathRequeuesOnSurvivor(t *testing.T) {
	st := openStore(t, "")
	var dead sync.Once
	died := make(chan struct{})
	dying := &fakeExec{name: "dying", slots: 1}
	dying.exec = func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-died:
			return nil, errors.New("connection refused")
		default:
		}
		// First point: run it, then die.
		dead.Do(func() { close(died) })
		return okResult(p), nil
	}
	dying.health = func(context.Context) error {
		select {
		case <-died:
			return errors.New("dead")
		default:
			return nil
		}
	}
	survivor := &fakeExec{name: "survivor", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		time.Sleep(time.Millisecond)
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{dying, survivor}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(8), 0)
	waitState(t, j, api.JobDone)
	st8 := j.Status(true)
	if st8.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (%+v)", st8.Failed, st8)
	}
	var bySurvivor int
	for _, r := range st8.Points {
		if r.Worker == "survivor" {
			bySurvivor++
		}
	}
	// The dying executor ran at most one point before its death; the
	// survivor must have drained the rest.
	if bySurvivor < 7 {
		t.Errorf("survivor ran %d points, want >= 7 (%+v)", bySurvivor, st8.Points)
	}
}

// TestMaxAttemptsFailsPointAsData pins the requeue backstop: a point no
// worker can run becomes a worker_unavailable result, not an infinite
// requeue loop.
func TestMaxAttemptsFailsPointAsData(t *testing.T) {
	st := openStore(t, "")
	broken := &fakeExec{name: "broken", slots: 1,
		exec:   func(context.Context, ExecPoint) (*api.PointResult, error) { return nil, errors.New("boom") },
		health: func(context.Context) error { return nil }, // pings fine, still fails
	}
	c := NewCoordinator(st, []Executor{broken}, Config{MaxAttempts: 2})
	defer c.Close()

	j, _ := c.Submit(testSpec(1), 0)
	waitState(t, j, api.JobDone)
	res := j.Results()
	if len(res) != 1 || res[0].Error == nil || res[0].Error.Code != api.CodeWorkerUnavailable {
		t.Fatalf("results = %+v, want one worker_unavailable error", res)
	}
	if res[0].Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res[0].Attempts)
	}
}

// TestPanickingExecutorFailsPoint pins the recover at the executor
// boundary: a point whose execution panics becomes an internal-error
// result on its first dispatch, the other points complete, and the
// slot that recovered keeps serving.
func TestPanickingExecutorFailsPoint(t *testing.T) {
	st := openStore(t, "")
	exec := &fakeExec{name: "w1", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		if p.Index == 1 {
			panic("latency must be at least 1")
		}
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{exec}, Config{})
	defer c.Close()

	j, err := c.Submit(testSpec(4), 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, api.JobDone)
	for i, r := range j.Results() {
		if i == 1 {
			if r.Error == nil || r.Error.Code != api.CodeInternal || !strings.Contains(r.Error.Message, "latency must be at least 1") {
				t.Errorf("panicking point = %+v, want an internal error carrying the panic value", r)
			}
			if r.Attempts != 1 {
				t.Errorf("panicking point attempts = %d, want 1 (no requeue)", r.Attempts)
			}
			continue
		}
		if r.Error != nil || len(r.Report) == 0 {
			t.Errorf("point %d = %+v, want a report", i, r)
		}
	}
	if st := j.Status(false); st.Done != 4 || st.Failed != 1 || st.Requeues != 0 {
		t.Errorf("status = %+v, want 4 done, 1 failed, 0 requeues", st)
	}
}

func TestCancelStopsScheduling(t *testing.T) {
	st := openStore(t, "")
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	slow := &fakeExec{name: "slow", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		started <- struct{}{}
		select {
		case <-release:
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c := NewCoordinator(st, []Executor{slow}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(6), 0)
	<-started // one point in flight
	cancelled, err := c.Cancel(j.ID)
	if err != nil || cancelled.State() != api.JobCancelled {
		t.Fatalf("Cancel: %v, state %s", err, cancelled.State())
	}
	close(release)
	// The in-flight point was cancelled through its context and queued
	// points were purged: no further executions may start.
	select {
	case <-started:
		t.Error("a point started after cancel")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := c.Cancel("j-nope"); !errors.Is(err, api.ErrNotFound) {
		t.Errorf("cancelling unknown job: err = %v, want ErrNotFound", err)
	}
}

// TestEventsStreamBeforeFinish subscribes mid-job and checks per-point
// events arrive while the job is still running, then a terminal state
// event closes the channel.
func TestEventsStreamBeforeFinish(t *testing.T) {
	st := openStore(t, "")
	release := make(chan struct{}, 16)
	gated := &fakeExec{name: "gated", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-release:
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c := NewCoordinator(st, []Executor{gated}, Config{})
	defer c.Close()

	j, _ := c.Submit(testSpec(3), 0)
	_, ch := j.Subscribe()
	release <- struct{}{}

	var sawPointWhileRunning bool
	var events []api.JobEvent
	for ev := range ch {
		events = append(events, ev)
		if ev.Type == api.EventPoint && !j.State().Terminal() {
			sawPointWhileRunning = true
		}
		if ev.Type == api.EventPoint {
			release <- struct{}{} // let the next point go
		}
	}
	if !sawPointWhileRunning {
		t.Errorf("no per-point event arrived before the job finished: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != api.EventState || last.State != api.JobDone {
		t.Errorf("stream did not end with a done state event: %+v", events)
	}
	points := 0
	for _, ev := range events {
		if ev.Type == api.EventPoint {
			points++
		}
	}
	if points != 3 {
		t.Errorf("stream carried %d point events, want 3", points)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := testSpec(3)
	j, err := st.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		res := &api.PointResult{Index: i, Report: []byte(fmt.Sprintf(`{"seed":%d}`, i)), Worker: "w"}
		if err := st.AppendPoint(j, res); err != nil {
			t.Fatalf("AppendPoint: %v", err)
		}
		j.recordResult(res)
	}
	if err := st.MarkState(j, api.JobDone); err != nil {
		t.Fatalf("MarkState: %v", err)
	}

	st2 := openStore(t, dir)
	if st2.Skipped() != 0 {
		t.Errorf("clean store reports %d skipped records", st2.Skipped())
	}
	j2, ok := st2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not reloaded", j.ID)
	}
	if j2.State() != api.JobDone {
		t.Errorf("reloaded state = %s, want done", j2.State())
	}
	got, want := j2.Results(), j.Results()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Report, want[i].Report) || got[i].Worker != want[i].Worker {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if j2.Spec.Program.Source != spec.Program.Source || len(j2.Spec.Points) != 3 {
		t.Errorf("reloaded spec = %+v, want %+v", j2.Spec, spec)
	}
}

// TestStoreToleratesCorruptedRecords simulates the crash-mid-append
// artifact: torn and garbage lines in the results log are skipped and
// counted, valid records around them still load, and the job comes back
// incomplete (the damaged points will simply re-run).
func TestStoreToleratesCorruptedRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	j, err := st.Create(testSpec(3))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	good0 := &api.PointResult{Index: 0, Report: []byte(`{"seed":0}`)}
	good2 := &api.PointResult{Index: 2, Report: []byte(`{"seed":2}`)}
	if err := st.AppendPoint(j, good0); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPoint(j, good2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the log: garbage line, a torn (truncated) record, and an
	// out-of-range index between the two valid ones.
	path := filepath.Join(dir, j.ID+".results.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	var b strings.Builder
	b.WriteString(lines[0])
	b.WriteString("not json at all\n")
	b.WriteString(`{"record":"point","point":{"index":99}}` + "\n")
	b.WriteString(lines[1])
	b.WriteString(`{"record":"point","point":{"ind`) // torn write, no newline
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if st2.Skipped() != 3 {
		t.Errorf("skipped = %d, want 3", st2.Skipped())
	}
	j2, ok := st2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not reloaded", j.ID)
	}
	if j2.State() != api.JobPending {
		t.Errorf("state = %s, want pending (incomplete)", j2.State())
	}
	if pending := j2.pendingIndexes(); len(pending) != 1 || pending[0] != 1 {
		t.Errorf("pending = %v, want [1]", pending)
	}
}

// TestResumeAfterCoordinatorCrash pins the tentpole guarantee: stop the
// coordinator mid-job (in-flight points dropped), reopen the store with
// a fresh coordinator, Resume, and the completed job's full result set
// is byte-identical to an uninterrupted run of the same spec.
func TestResumeAfterCoordinatorCrash(t *testing.T) {
	spec := testSpec(6)

	// Baseline: the same spec run uninterrupted.
	baseSt := openStore(t, "")
	baseExec := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	baseC := NewCoordinator(baseSt, []Executor{baseExec}, Config{})
	defer baseC.Close()
	baseJob, _ := baseC.Submit(spec, 0)
	waitState(t, baseJob, api.JobDone)

	// Interrupted run: complete two points, then "crash" (Close drops
	// the in-flight point and stops scheduling).
	dir := t.TempDir()
	st1 := openStore(t, dir)
	ran := make(chan struct{}, 16)
	release := make(chan struct{}, 16)
	gated := &fakeExec{name: "w", slots: 1, exec: func(ctx context.Context, p ExecPoint) (*api.PointResult, error) {
		select {
		case <-release:
			ran <- struct{}{}
			return okResult(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	c1 := NewCoordinator(st1, []Executor{gated}, Config{})
	j1, err := c1.Submit(spec, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	release <- struct{}{}
	release <- struct{}{}
	<-ran
	<-ran
	c1.Close()
	st1.Close()
	if j1.State() == api.JobDone {
		t.Fatal("job finished before the crash; test needs an interrupted run")
	}

	// Restart: fresh store over the same dir, fresh coordinator, Resume.
	st2 := openStore(t, dir)
	plain := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c2 := NewCoordinator(st2, []Executor{plain}, Config{})
	defer c2.Close()
	if resumed := c2.Resume(); resumed != 1 {
		t.Fatalf("Resume = %d jobs, want 1", resumed)
	}
	j2, ok := st2.Get(j1.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", j1.ID)
	}
	waitState(t, j2, api.JobDone)

	got, want := j2.Results(), baseJob.Results()
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Report, want[i].Report) {
			t.Errorf("point %d: resumed report %s != uninterrupted %s", i, got[i].Report, want[i].Report)
		}
		if got[i].Error != nil {
			t.Errorf("point %d: unexpected error %v", i, got[i].Error)
		}
	}
}

func TestSubmitOnVolatileStore(t *testing.T) {
	st := openStore(t, "")
	exec := &fakeExec{name: "w", slots: 1, exec: func(_ context.Context, p ExecPoint) (*api.PointResult, error) {
		return okResult(p), nil
	}}
	c := NewCoordinator(st, []Executor{exec}, Config{})
	defer c.Close()
	j, err := c.Submit(testSpec(2), 0)
	if err != nil {
		t.Fatalf("Submit on volatile store: %v", err)
	}
	waitState(t, j, api.JobDone)
	if st.Dir() != "" {
		t.Errorf("volatile store has dir %q", st.Dir())
	}
}
