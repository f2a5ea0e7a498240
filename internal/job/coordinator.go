// coordinator.go shards job points across workers. The coordinator
// owns one FIFO of pending points and a goroutine per executor slot;
// each slot pulls the next point, runs it through its executor, and
// either persists the result or — on a worker-level failure — requeues
// the point and sidelines the executor until it answers health checks
// again. Scheduling is pull-based, so a dead worker simply stops
// pulling and the survivors drain its share; nothing is partitioned up
// front.
package job

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
)

// ExecPoint is one dispatched grid point: the job it belongs to, which
// point, and the resolved spec to simulate.
type ExecPoint struct {
	Job      *Job
	Index    int
	Spec     api.RunSpec
	Attempt  int // prior dispatches of this point
	Enqueued time.Time
}

// Executor runs points — the worker transport. Implementations must be
// safe for Slots() concurrent Execute calls.
//
// The error contract splits failures in two:
//   - result with a non-nil Error field, err == nil: a point-level
//     failure (cycle limit, point deadline). It is data; the job
//     completes with it.
//   - err != nil: a worker-level failure (process death, connection
//     refused, draining). The coordinator requeues the point and
//     health-checks the executor before handing it more work.
//
// A panic in Execute is a point-level failure with code internal.
type Executor interface {
	// Name labels results and logs (e.g. "local", "worker-2").
	Name() string
	// Slots is the number of points the executor runs concurrently.
	Slots() int
	// Execute runs one point. Cancellation of ctx (job cancelled or
	// coordinator shutting down) must surface as err, not as a result.
	Execute(ctx context.Context, p ExecPoint) (*api.PointResult, error)
}

// Pinger is an optional Executor health probe: a sidelined executor
// rejoins scheduling when Ping succeeds again.
type Pinger interface {
	Ping(ctx context.Context) error
}

// Observer receives fabric lifecycle callbacks — the hook the server
// uses to land job progress on the telemetry registry and the span
// flight recorder. Implementations must be cheap and non-blocking; a
// nil Observer is replaced by a no-op.
type Observer interface {
	JobSubmitted(j *Job)
	JobFinished(j *Job)
	PointDone(j *Job, res *api.PointResult)
	PointRequeued(j *Job, index int)
	QueueDepth(depth int)
}

type nopObserver struct{}

func (nopObserver) JobSubmitted(*Job)                {}
func (nopObserver) JobFinished(*Job)                 {}
func (nopObserver) PointDone(*Job, *api.PointResult) {}
func (nopObserver) PointRequeued(*Job, int)          {}
func (nopObserver) QueueDepth(int)                   {}

// Config tunes a Coordinator.
type Config struct {
	// MaxAttempts bounds dispatches per point; past it the point fails
	// as data with code worker_unavailable (default 8).
	MaxAttempts int
	// Observer receives lifecycle callbacks (nil for none).
	Observer Observer
}

// Coordinator schedules jobs over a fixed executor set.
type Coordinator struct {
	store       *Store
	execs       []Executor
	obs         Observer
	maxAttempts int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ExecPoint
	closed bool
}

// NewCoordinator starts a coordinator over store and execs: one
// dispatch goroutine per executor slot. Incomplete jobs already in the
// store are NOT scheduled automatically — call Resume for that, so the
// caller controls when (and whether) recovery work begins.
func NewCoordinator(store *Store, execs []Executor, cfg Config) *Coordinator {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.Observer == nil {
		cfg.Observer = nopObserver{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		store:       store,
		execs:       execs,
		obs:         cfg.Observer,
		maxAttempts: cfg.MaxAttempts,
		ctx:         ctx,
		cancel:      cancel,
	}
	c.cond = sync.NewCond(&c.mu)
	for _, e := range execs {
		for s := 0; s < e.Slots(); s++ {
			c.wg.Add(1)
			go c.slotLoop(e)
		}
	}
	return c
}

// Store exposes the backing store (status endpoints read through it).
func (c *Coordinator) Store() *Store { return c.store }

// Executors returns the executor set (for health listings).
func (c *Coordinator) Executors() []Executor { return c.execs }

// Active counts non-terminal jobs.
func (c *Coordinator) Active() int {
	n := 0
	for _, j := range c.store.Jobs() {
		if !j.State().Terminal() {
			n++
		}
	}
	return n
}

// Submit persists a new job and enqueues every point. spanReq is the
// service-span request ordinal its point spans are recorded under (0
// when spans are off).
func (c *Coordinator) Submit(spec Spec, spanReq uint64) (*Job, error) {
	j, err := c.store.Create(spec)
	if err != nil {
		return nil, err
	}
	j.SpanReq = spanReq
	c.obs.JobSubmitted(j)
	c.enqueue(j, allIndexes(len(spec.Points)))
	return j, nil
}

// Resume re-enqueues every incomplete job in the store — the crash
// recovery path. Jobs whose results already cover every point are
// finalized instead of re-run. It returns the number of jobs that
// went back into scheduling.
func (c *Coordinator) Resume() int {
	resumed := 0
	for _, j := range c.store.Jobs() {
		if j.State().Terminal() {
			continue
		}
		pending := j.pendingIndexes()
		if len(pending) == 0 {
			c.finalize(j)
			continue
		}
		c.enqueue(j, pending)
		resumed++
	}
	return resumed
}

// Cancel stops a job: queued points are dropped, in-flight points are
// cancelled through their contexts, completed results stay durable.
func (c *Coordinator) Cancel(id string) (*Job, error) {
	j, ok := c.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("job %s: %w", id, api.ErrNotFound)
	}
	j.mu.Lock()
	already := j.state.Terminal()
	if !already {
		j.setStateLocked(api.JobCancelled)
	}
	j.mu.Unlock()
	if already {
		return j, nil
	}
	c.store.MarkState(j, api.JobCancelled) //nolint:errcheck // marker loss only costs a re-cancel after restart
	c.purge(j)
	c.obs.JobFinished(j)
	return j, nil
}

// Close stops scheduling: in-flight points are cancelled and left
// pending in the store (Resume after a restart picks them up), slot
// goroutines drain, the store stays open for reads.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	c.cond.Broadcast()
	c.wg.Wait()
}

// --- scheduling internals ---

func allIndexes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// enqueue marks the job running and pushes its points, attaching the
// job's runtime cancellation context on first scheduling.
func (c *Coordinator) enqueue(j *Job, indexes []int) {
	jctx, jcancel := context.WithCancel(c.ctx)
	j.mu.Lock()
	if j.cancel == nil {
		j.ctx, j.cancel = jctx, jcancel
	} else {
		jcancel()
	}
	j.setStateLocked(api.JobRunning)
	j.mu.Unlock()

	now := time.Now()
	c.mu.Lock()
	for _, i := range indexes {
		c.queue = append(c.queue, ExecPoint{
			Job: j, Index: i, Spec: j.Spec.Points[i], Enqueued: now,
		})
	}
	depth := len(c.queue)
	c.mu.Unlock()
	c.obs.QueueDepth(depth)
	c.cond.Broadcast()
}

// push requeues one point (after a worker failure).
func (c *Coordinator) push(t ExecPoint) {
	c.mu.Lock()
	c.queue = append(c.queue, t)
	depth := len(c.queue)
	c.mu.Unlock()
	c.obs.QueueDepth(depth)
	c.cond.Broadcast()
}

// pop blocks for the next schedulable point; ok is false when the
// coordinator is closed. Points of jobs that left the running state
// while queued are dropped here.
func (c *Coordinator) pop() (ExecPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) > 0 {
			t := c.queue[0]
			c.queue = c.queue[1:]
			if t.Job.State() != api.JobRunning {
				continue
			}
			c.obs.QueueDepth(len(c.queue))
			return t, true
		}
		if c.closed {
			return ExecPoint{}, false
		}
		c.cond.Wait()
	}
}

// purge drops queued points of j after a cancel.
func (c *Coordinator) purge(j *Job) {
	c.mu.Lock()
	kept := c.queue[:0]
	for _, t := range c.queue {
		if t.Job != j {
			kept = append(kept, t)
		}
	}
	c.queue = kept
	depth := len(c.queue)
	c.mu.Unlock()
	c.obs.QueueDepth(depth)
}

// slotLoop is one executor slot: pull, execute, persist or requeue.
func (c *Coordinator) slotLoop(e Executor) {
	defer c.wg.Done()
	for {
		t, ok := c.pop()
		if !ok {
			return
		}
		j := t.Job
		j.mu.Lock()
		pctx := j.ctx
		j.mu.Unlock()
		if pctx == nil {
			// Never scheduled — cannot happen for queued points, but a
			// nil context must not reach an executor.
			continue
		}
		cancel := func() {}
		if ms := j.Spec.PointTimeoutMs; ms > 0 {
			pctx, cancel = context.WithTimeout(pctx, time.Duration(ms)*time.Millisecond)
		}
		res, err := c.execute(pctx, e, t)
		cancel()
		if err != nil {
			c.handleWorkerFailure(e, t, err)
			continue
		}
		if res == nil {
			res = &api.PointResult{Index: t.Index, Policy: t.Spec.Policy.String()}
		}
		res.Attempts = t.Attempt + 1
		if res.Worker == "" {
			res.Worker = e.Name()
		}
		c.complete(j, res)
	}
}

// execute runs one point on e and turns a panic into a failed point.
// Simulation is deterministic, so a point that panicked once would
// panic on every worker: it fails as data with code internal instead of
// being requeued, and the slot loop keeps running.
func (c *Coordinator) execute(ctx context.Context, e Executor, t ExecPoint) (res *api.PointResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = &api.PointResult{
				Index:  t.Index,
				Policy: t.Spec.Policy.String(),
				Error: &api.Error{
					Code:    api.CodeInternal,
					Message: fmt.Sprintf("point %d panicked on %s: %v", t.Index, e.Name(), r),
				},
			}
			err = nil
		}
	}()
	return e.Execute(ctx, t)
}

// handleWorkerFailure requeues a point whose worker died under it and
// sidelines the executor until it pings healthy again.
func (c *Coordinator) handleWorkerFailure(e Executor, t ExecPoint, err error) {
	j := t.Job
	if c.ctx.Err() != nil || j.State() != api.JobRunning {
		// Shutdown or cancel: the point stays pending; a Resume after
		// restart re-runs it. Nothing to requeue now.
		return
	}
	t.Attempt++
	j.noteRequeue()
	c.obs.PointRequeued(j, t.Index)
	if t.Attempt >= c.maxAttempts {
		c.complete(j, &api.PointResult{
			Index:  t.Index,
			Policy: t.Spec.Policy.String(),
			Error: &api.Error{
				Code:    api.CodeWorkerUnavailable,
				Message: fmt.Sprintf("point %d failed after %d dispatches, last on %s: %v", t.Index, t.Attempt, e.Name(), err),
			},
			Attempts: t.Attempt,
		})
		return
	}
	c.push(t)
	c.waitHealthy(e)
}

// waitHealthy blocks this slot until its executor answers a health
// probe (or the coordinator closes). Executors without a Ping get a
// fixed cool-down instead, so a crashed worker's slots don't spin.
func (c *Coordinator) waitHealthy(e Executor) {
	p, ok := e.(Pinger)
	delay := 100 * time.Millisecond
	for {
		select {
		case <-time.After(delay):
		case <-c.ctx.Done():
			return
		}
		if !ok {
			return
		}
		pingCtx, cancel := context.WithTimeout(c.ctx, 2*time.Second)
		err := p.Ping(pingCtx)
		cancel()
		if err == nil {
			return
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// complete persists one finished point, updates the job, and finalizes
// it when that was the last pending point.
func (c *Coordinator) complete(j *Job, res *api.PointResult) {
	if err := c.store.AppendPoint(j, res); err != nil {
		// The result still lands in memory — failing the append must
		// not wedge the job — but it will re-run after a restart.
		res.Error = joinStoreError(res.Error, err)
	}
	last := j.recordResult(res)
	c.obs.PointDone(j, res)
	if last {
		c.finalize(j)
	}
}

// finalize marks a fully-covered job done.
func (c *Coordinator) finalize(j *Job) {
	c.store.MarkState(j, api.JobDone) //nolint:errcheck // marker loss only re-finalizes after restart
	j.mu.Lock()
	j.setStateLocked(api.JobDone)
	j.mu.Unlock()
	c.obs.JobFinished(j)
}

// joinStoreError annotates a point result whose persistence failed.
func joinStoreError(orig *api.Error, err error) *api.Error {
	if orig != nil {
		return orig
	}
	return &api.Error{Code: api.CodeInternal, Message: "persisting result: " + err.Error()}
}
