// Zero-allocation regression tests for the per-cycle fast path (see
// ARCHITECTURE.md §10). Each test pins a hot function at 0 allocs/op
// with testing.AllocsPerRun so an accidental escape or slice regrowth
// fails CI instead of silently eroding simulator throughput. The race
// detector instruments allocations, so these skip under -race; CI runs
// them in a dedicated non-race step.
package repro_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/rfu"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fig2Demands mirrors BenchmarkFig2SelectionUnit's demand stream: 64
// pseudo-random requirement vectors summing to at most the queue size.
func fig2Demands() []arch.Counts {
	demands := make([]arch.Counts, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range demands {
		left := arch.QueueSize
		for t := range demands[i] {
			v := rng.Intn(left + 1)
			demands[i][t] = v
			left -= v
		}
	}
	return demands
}

func requireZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", what, allocs)
	}
}

func TestZeroAllocManagerSelect(t *testing.T) {
	m := core.NewManager(rfu.New(8), config.DefaultBasis())
	demands := fig2Demands()
	// Warm the steering cache and any lazily sized scratch.
	var sel core.Selection
	for _, d := range demands {
		m.Select(d, &sel)
	}
	i := 0
	requireZeroAllocs(t, "core.Manager.Select (cached)", func() {
		m.Select(demands[i%len(demands)], &sel)
		i++
	})

	// The miss path (CEM generators + gate-level selection) must be
	// allocation-free too: disabling the cache forces it every call.
	m.DisableCache = true
	requireZeroAllocs(t, "core.Manager.Select (uncached)", func() {
		m.Select(demands[i%len(demands)], &sel)
		i++
	})
}

func TestZeroAllocCEM(t *testing.T) {
	req := arch.Counts{3, 1, 2, 0, 1}
	av := arch.Counts{5, 2, 3, 1, 1}
	requireZeroAllocs(t, "cem.Error", func() {
		_ = cem.Error(req, av)
	})
	requireZeroAllocs(t, "cem.CircuitError", func() {
		_ = cem.CircuitError(req, av)
	})
}

func TestZeroAllocCircuitMinimalErrorSelect(t *testing.T) {
	errs := [arch.NumConfigs]int{3, 1, 4, 1}
	dists := [arch.NumConfigs]int{0, 5, 2, 8}
	requireZeroAllocs(t, "core.CircuitMinimalErrorSelect", func() {
		_ = core.CircuitMinimalErrorSelect(errs, dists)
	})
}

// steadyLoop is an endless-for-test-purposes loop mixing integer,
// multiply, load/store and FP work so the steady-state cycle exercises
// fetch, dispatch, wake-up, execution (including the memory shim),
// branch resolution and steering — every subsystem the fast path spans.
const steadyLoop = `
	li r10, 0x1000
	li r1, 0
	li r2, 100000000
	li r4, 3
	fcvt.s.w f1, r4
loop:
	addi r1, r1, 1
	mul r3, r1, r2
	sw r3, 0(r10)
	lw r5, 0(r10)
	add r6, r5, r3
	fmul f2, f1, f1
	fadd f3, f2, f1
	bne r1, r2, loop
	halt
`

func TestZeroAllocMachineCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams(), nil)
	p.SetManager(baseline.NewSteeringBasis(p.Fabric(), config.DefaultBasis()))
	// Warm up: fill the trace cache, grow the fetch buffer and scratch
	// slices to their steady-state capacities, and converge the steering
	// cache. The loop body is far longer than the measured window, so
	// the program cannot halt mid-measurement.
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	if allocs := testing.AllocsPerRun(2000, p.Cycle); allocs != 0 {
		t.Errorf("steady-state Machine cycle: %.2f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocMachineCycleWithFaults pins the fault-injection path:
// the per-cycle draw loop, scrub countdown, repair scheduler and health
// mask recomputation all run over fixed-size arrays and must not
// allocate either. (The disabled path — injector nil — is pinned by
// TestZeroAllocMachineCycle above.)
func TestZeroAllocMachineCycleWithFaults(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams()
	params.FaultTransientRate = 0.001
	params.FaultSeed = 9
	p := cpu.New(prog, params, nil)
	p.SetManager(baseline.NewSteeringBasis(p.Fabric(), config.DefaultBasis()))
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	if allocs := testing.AllocsPerRun(2000, p.Cycle); allocs != 0 {
		t.Errorf("steady-state cycle with faults enabled: %.2f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocMachineCycleWithDemand pins the demand-driven policy:
// target-cache lookups, synthesis on a miss and the load walk all reuse
// the manager's fixed arrays and scratch slice.
func TestZeroAllocMachineCycleWithDemand(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams(), nil)
	mgr := core.NewDemandManager(p.Fabric())
	p.SetManager(mgr)
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	syntheses := mgr.Syntheses
	if allocs := testing.AllocsPerRun(2000, p.Cycle); allocs != 0 {
		t.Errorf("steady-state cycle under the demand policy: %.2f allocs/op, want 0", allocs)
	}
	if mgr.Syntheses == syntheses {
		t.Error("the demand manager synthesised nothing; its path was not exercised")
	}
}

// TestZeroAllocMachineCycleWithSpans pins the instrumented cycle path:
// with a span recorder attached (and faults injecting so the fault and
// repair hooks actually fire), recording goes into preallocated storage
// and the steady-state cycle must still not allocate. (The recorder-nil
// path is pinned by TestZeroAllocMachineCycle above: the hooks reduce
// to one predictable branch.)
func TestZeroAllocMachineCycleWithSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams()
	params.FaultTransientRate = 0.001
	params.FaultSeed = 9
	p := cpu.New(prog, params, nil)
	mgr := predict.NewManagerBasis(p.Fabric(), config.DefaultBasis(), predict.Config{})
	p.SetManager(mgr)
	rec := span.NewRecorder(span.Config{}, arch.NumRFUSlots)
	p.SetSink(rec)
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	if allocs := testing.AllocsPerRun(2000, p.Cycle); allocs != 0 {
		t.Errorf("steady-state cycle with span recorder: %.2f allocs/op, want 0", allocs)
	}
	if len(rec.Entries()) == 0 {
		t.Error("span recorder captured nothing; the instrumented path was not exercised")
	}
}

// discardExporter drops every telemetry record, so an alloc count of
// the telemetry path measures the probe rather than an encoder.
type discardExporter struct{}

func (discardExporter) Sample(*telemetry.Sample) error          { return nil }
func (discardExporter) Decision(*telemetry.Decision) error      { return nil }
func (discardExporter) Fault(*telemetry.FaultEvent) error       { return nil }
func (discardExporter) Prefetch(*telemetry.PrefetchEvent) error { return nil }
func (discardExporter) Flush() error                            { return nil }

// TestZeroAllocMachineCycleWithTelemetry pins the fan-out path: a
// telemetry probe and a span recorder attached together (obs.Join), with
// faults injecting and the prefetch policy steering, so sample, decision,
// fault and prefetch records all flow. The steady-state cycle must still
// not allocate.
func TestZeroAllocMachineCycleWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams()
	params.FaultTransientRate = 0.001
	params.FaultSeed = 9
	p := cpu.New(prog, params, nil)
	p.SetManager(predict.NewManagerBasis(p.Fabric(), config.DefaultBasis(), predict.Config{}))
	probe := telemetry.NewProbe(100)
	probe.SetExporter(discardExporter{})
	rec := span.NewRecorder(span.Config{}, arch.NumRFUSlots)
	p.SetSink(obs.Join(probe, rec))
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	// One run of 2000 cycles, not 2000 runs of one: AllocsPerRun
	// truncates its per-run average, which would hide an allocation per
	// sample (one every 100 cycles).
	cycles := func() {
		for i := 0; i < 2000; i++ {
			p.Cycle()
		}
	}
	if allocs := testing.AllocsPerRun(1, cycles); allocs != 0 {
		t.Errorf("2000 steady-state cycles with telemetry and spans: %.0f allocs, want 0", allocs)
	}
	if p.Halted() {
		t.Fatal("workload halted during measurement")
	}
	if v, _ := probe.Registry().CounterValue("rsssim_faults_injected_total", telemetry.Label{Key: "kind", Value: "transient"}); v == 0 {
		t.Error("probe saw no faults; the fault path was not exercised")
	}
	if len(rec.Entries()) == 0 {
		t.Error("span recorder captured nothing; the fan-out did not reach it")
	}
}

// TestZeroAllocMachineCycleWithPrefetch pins the prediction path: the
// demand-history ring, phase detector, Markov update and speculation
// gates run every cycle under the prefetch policy and must not
// allocate once the manager's scratch buffers have grown.
func TestZeroAllocMachineCycleWithPrefetch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog, err := isa.Assemble(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.New(prog, cpu.DefaultParams(), nil)
	p.SetManager(predict.NewManagerBasis(p.Fabric(), config.DefaultBasis(), predict.Config{}))
	for i := 0; i < 50_000 && !p.Halted(); i++ {
		p.Cycle()
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; steady-state cycles unmeasurable")
	}
	if allocs := testing.AllocsPerRun(2000, p.Cycle); allocs != 0 {
		t.Errorf("steady-state cycle with prefetch policy: %.2f allocs/op, want 0", allocs)
	}
}

// buildAllocBound caps the host bytes one default machine build may
// allocate. Data memory is paged on first store (ARCHITECTURE.md §10),
// so a build pays for the processor's tables, not the 1 MiB address
// space it models.
const buildAllocBound = 64 << 10

// machineSink keeps measured builds from being optimised away.
var machineSink *repro.Machine

func TestBuildAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	prog := workload.KernelByName("sort").Program()
	const builds = 20
	var ms runtime.MemStats
	// Best of a few rounds, so a stray background allocation cannot
	// fail the bound.
	perBuild := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < builds; i++ {
			machineSink = repro.NewMachine(prog, repro.Options{})
		}
		runtime.ReadMemStats(&ms)
		perBuild = min(perBuild, (ms.TotalAlloc-before)/builds)
	}
	if perBuild > buildAllocBound {
		t.Errorf("building a default machine allocates %d KiB, want <= %d KiB", perBuild>>10, buildAllocBound>>10)
	}
	t.Logf("default machine build: %.1f KiB", float64(perBuild)/1024)
}
