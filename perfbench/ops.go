package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/predict"
)

// maxCycles bounds every in-process run; rssd's default budget is far
// above anything the workloads need, so both sides halt normally.
const maxCycles = 50_000_000

// op is one simulation the benchmark asks for: a program and the spec
// it runs under.
type op struct {
	name   string
	prog   repro.Program
	source string // assembly text of prog; rendered on demand when empty
	spec   api.RunSpec
	// kernel, when set, presets registers and memory before the run and
	// validates the architectural outcome after it (in-process only:
	// rssd runs sources without a set-up hook).
	kernel *repro.Kernel
	// straight marks a straight-line program, which must halt having
	// retired exactly len(prog) instructions.
	straight bool
}

func (o *op) text() string {
	if o.source == "" {
		o.source = render(o.prog)
	}
	return o.source
}

func (o *op) options() repro.Options {
	return repro.Options{
		Params:       o.spec.Params,
		Policy:       o.spec.Policy,
		Seed:         o.spec.Seed,
		MinResidency: o.spec.MinResidency,
	}
}

// render writes a program as assembly text the assembler reads back.
func render(p repro.Program) string {
	var b strings.Builder
	for _, in := range p {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// outcome is what one simulation produced: the exact simulated counts
// the benchmark compares across runs and against rssd.
type outcome struct {
	Stats          repro.Stats   // scalar run, or per-core sums for a cluster
	Cores          []repro.Stats // cluster runs only
	Cycles         int           // machine cycles (cluster cycles for a cluster)
	IPC            float64
	Reconfigs      int
	ReconfigCycles int
	Repairs        int
}

func (a outcome) equal(b outcome) bool {
	if a.Stats != b.Stats || a.Cycles != b.Cycles || a.IPC != b.IPC || a.Reconfigs != b.Reconfigs ||
		a.ReconfigCycles != b.ReconfigCycles || a.Repairs != b.Repairs || len(a.Cores) != len(b.Cores) {
		return false
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			return false
		}
	}
	return true
}

// simulate runs one op in-process through the public machine API. A
// non-nil tracer times the calls into each layer on the way; it does
// not change what is simulated.
func simulate(o *op, tr *tracer) (outcome, error) {
	if o.spec.Params.Cores > 1 {
		return simulateCluster(o, tr)
	}
	var m *repro.Machine
	if tr != nil {
		m = tr.build(func() *repro.Machine { return repro.NewMachine(o.prog, o.options()) })
		tr.wrapManager(m, o)
	} else {
		m = repro.NewMachine(o.prog, o.options())
	}
	if o.kernel != nil && o.kernel.Setup != nil {
		o.kernel.Setup(m.Processor().Memory(), m.SetReg)
	}
	var st repro.Stats
	var err error
	if tr != nil {
		st, err = tr.run(m)
	} else {
		st, err = m.Run(maxCycles)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", o.name, err)
	}
	if o.kernel != nil && o.kernel.Validate != nil {
		if err := o.kernel.Validate(m.Reg, m.Processor().Memory()); err != nil {
			return outcome{}, fmt.Errorf("%s: kernel validation: %w", o.name, err)
		}
	}
	if o.straight && st.Retired != len(o.prog) {
		return outcome{}, fmt.Errorf("%s: retired %d, want %d", o.name, st.Retired, len(o.prog))
	}
	if tr != nil {
		tr.report(m)
	}
	out := outcome{
		Stats:          st,
		Cycles:         st.Cycles,
		IPC:            st.IPC(),
		Reconfigs:      m.Reconfigurations(),
		ReconfigCycles: m.Processor().Fabric().ReconfigurationCycles(),
	}
	if fs, ok := m.FaultStats(); ok {
		out.Repairs = fs.RepairsStarted
	}
	return out, nil
}

func simulateCluster(o *op, tr *tracer) (outcome, error) {
	c := cluster.New(o.prog, o.options())
	start := time.Now()
	cs, err := c.Run(maxCycles)
	if tr != nil {
		tr.clusterNs += time.Since(start).Nanoseconds()
		tr.clusterCoreCycles += int64(cs.Cycles * len(cs.Cores))
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", o.name, err)
	}
	out := outcome{Cycles: cs.Cycles, IPC: cs.AggregateIPC(), Cores: cs.Cores}
	for k, st := range cs.Cores {
		if o.straight && st.Retired != len(o.prog) {
			return outcome{}, fmt.Errorf("%s: core %d retired %d, want %d", o.name, k, st.Retired, len(o.prog))
		}
		out.Stats.Cycles += st.Cycles
		out.Stats.Retired += st.Retired
		out.Stats.CyclesFrontend += st.CyclesFrontend
		out.Stats.CyclesUnits += st.CyclesUnits
		out.Stats.CyclesDeps += st.CyclesDeps
		m := c.Core(k)
		out.Reconfigs += m.Reconfigurations()
		out.ReconfigCycles += m.Processor().Fabric().ReconfigurationCycles()
		if fs, ok := m.FaultStats(); ok {
			out.Repairs += fs.RepairsStarted
		}
	}
	return out, nil
}

// tracer accumulates the per-layer timings of in-process simulations.
// One tracer serves one goroutine.
type tracer struct {
	builds, buildNs, buildAlloc int64
	reports, reportNs           int64
	runNs, runCycles, runAllocs int64

	// Manage calls, how many of them were timed, and their time.
	steerCalls, steerTimed, steerNs int64
	predCalls, predTimed, predNs    int64
	steerRunNs                      int64 // run time of the steering machines
	cacheHits, cacheMisses          int
	pfIssued, pfConfirmed, pfWasted int

	clusterNs, clusterCoreCycles int64

	mgr *timedManager // manager of the machine being run, if wrapped
	ms  runtime.MemStats
}

func (tr *tracer) build(fn func() *repro.Machine) *repro.Machine {
	runtime.ReadMemStats(&tr.ms)
	before := tr.ms.TotalAlloc
	start := time.Now()
	m := fn()
	tr.buildNs += time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&tr.ms)
	tr.buildAlloc += int64(tr.ms.TotalAlloc - before)
	tr.builds++
	return m
}

func (tr *tracer) run(m *repro.Machine) (repro.Stats, error) {
	runtime.ReadMemStats(&tr.ms)
	before := tr.ms.Mallocs
	start := time.Now()
	st, err := m.Run(maxCycles)
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&tr.ms)
	tr.runAllocs += int64(tr.ms.Mallocs - before)
	tr.runNs += ns
	tr.runCycles += int64(st.Cycles)
	if t := tr.mgr; t != nil {
		s := t.core.Stats()
		tr.cacheHits += s.CacheHits
		tr.cacheMisses += s.CacheMisses
		timed := t.calls / manageSampleEvery
		if t.prefetch {
			tr.predCalls += t.calls
			tr.predTimed += timed
			tr.predNs += t.ns
			tr.pfIssued += s.PrefetchIssued
			tr.pfConfirmed += s.PrefetchConfirmed
			tr.pfWasted += s.PrefetchWastedSpans
		} else {
			tr.steerCalls += t.calls
			tr.steerTimed += timed
			tr.steerNs += t.ns
			tr.steerRunNs += ns
		}
	}
	return st, err
}

func (tr *tracer) report(m *repro.Machine) {
	start := time.Now()
	if _, err := m.ReportJSON(); err == nil {
		tr.reportNs += time.Since(start).Nanoseconds()
		tr.reports++
	}
}

// wrapManager replaces the configuration manager repro.NewMachine
// installed with an identically built one behind a timing wrapper.
// Policies other than steering and prefetch keep their manager.
func (tr *tracer) wrapManager(m *repro.Machine, o *op) {
	tr.mgr = nil
	p := m.Processor()
	basis := config.DefaultBasis()
	t := &timedManager{}
	switch o.spec.Policy {
	case repro.PolicySteering:
		s := baseline.NewSteeringBasis(p.Fabric(), basis)
		s.M.MinResidency = o.spec.MinResidency
		t.inner, t.core = s, s.M
	case repro.PolicyPrefetch:
		pf := predict.NewManagerBasis(p.Fabric(), basis, predict.Config{
			HistoryDepth: o.spec.Params.PrefetchHistoryDepth,
			Confidence:   o.spec.Params.PrefetchConfidence,
		})
		pf.Core().MinResidency = o.spec.MinResidency
		t.inner, t.core, t.prefetch = pf, pf.Core(), true
	default:
		return
	}
	p.SetManager(t)
	tr.mgr = t
}

// manageSampleEvery is the sampling period of timedManager: timing
// every call would add two clock reads to each simulated cycle.
const manageSampleEvery = 16

// timedManager counts the Manage calls of the manager it wraps and
// times every manageSampleEvery-th one.
type timedManager struct {
	inner     cpu.Manager
	core      *core.Manager
	prefetch  bool
	calls, ns int64
}

func (t *timedManager) Manage(required arch.Counts) {
	t.calls++
	if t.calls%manageSampleEvery != 0 {
		t.inner.Manage(required)
		return
	}
	start := time.Now()
	t.inner.Manage(required)
	t.ns += time.Since(start).Nanoseconds()
}

// expectations memoises in-process reference results by op key, so a
// spec the workload sends many times is simulated once for checking.
type expectations struct {
	mu   sync.Mutex
	runs map[string]outcome
	ests map[string]float64
}

func newExpectations() *expectations {
	return &expectations{runs: map[string]outcome{}, ests: map[string]float64{}}
}

func specKey(source string, spec api.RunSpec) string {
	b, _ := json.Marshal(spec) // a RunSpec always encodes
	return string(b) + "\x00" + source
}

// service returns what rssd must report for source under spec,
// memoised for sources the workload sends more than once.
func (e *expectations) service(source string, spec api.RunSpec) (outcome, error) {
	key := specKey(source, spec)
	e.mu.Lock()
	want, ok := e.runs[key]
	e.mu.Unlock()
	if ok {
		return want, nil
	}
	want, err := serviceRun(source, spec)
	if err != nil {
		return outcome{}, err
	}
	e.mu.Lock()
	e.runs[key] = want
	e.mu.Unlock()
	return want, nil
}

// serviceRun simulates source under spec the way rssd does: the same
// assembled unit, run the same way, without a kernel set-up hook.
func serviceRun(source string, spec api.RunSpec) (outcome, error) {
	u, err := repro.AssembleUnit(source)
	if err != nil {
		return outcome{}, err
	}
	o := &op{spec: spec}
	st, err := repro.NewMachineFromUnit(u, o.options()).Run(maxCycles)
	if err != nil {
		return outcome{}, err
	}
	return outcome{Stats: st, Cycles: st.Cycles, IPC: st.IPC()}, nil
}

// estimate returns the in-process analytic estimate for source under spec.
func (e *expectations) estimate(source string, spec api.RunSpec) (float64, error) {
	key := specKey(source, spec)
	e.mu.Lock()
	want, ok := e.ests[key]
	e.mu.Unlock()
	if ok {
		return want, nil
	}
	u, err := repro.AssembleUnit(source)
	if err != nil {
		return 0, err
	}
	o := &op{spec: spec}
	est, err := repro.EstimateIPC(u.Program, o.options())
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.ests[key] = est.PredictedIPC
	e.mu.Unlock()
	return est.PredictedIPC, nil
}

// runReport is the part of a machine's JSON run report the benchmark
// checks. Responses are decoded into it as they arrive, so a window
// keeps only these few fields of each alive.
type runReport struct {
	Stats struct {
		Cycles  int  `json:"Cycles"`
		Retired int  `json:"Retired"`
		Halted  bool `json:"Halted"`
	} `json:"stats"`
	IPC float64 `json:"ipc"`
}

func decodeReport(report json.RawMessage) (runReport, error) {
	var got runReport
	if err := json.Unmarshal(report, &got); err != nil {
		return got, fmt.Errorf("decoding report: %w", err)
	}
	return got, nil
}

// checkReport compares an rssd report with the in-process run of the
// same spec on cycles, retired count and IPC.
func checkReport(report json.RawMessage, want outcome) error {
	got, err := decodeReport(report)
	if err != nil {
		return err
	}
	return got.match(want)
}

func (got runReport) match(want outcome) error {
	if !got.Stats.Halted || got.Stats.Cycles != want.Cycles || got.Stats.Retired != want.Stats.Retired || got.IPC != want.IPC {
		return fmt.Errorf("report cycles=%d retired=%d ipc=%v halted=%v, in-process cycles=%d retired=%d ipc=%v",
			got.Stats.Cycles, got.Stats.Retired, got.IPC, got.Stats.Halted, want.Cycles, want.Stats.Retired, want.IPC)
	}
	return nil
}
