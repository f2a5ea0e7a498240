// Package repro is the public API of the reconfigurable superscalar
// processor simulator reproducing "Configuration Steering for a
// Reconfigurable Superscalar Processor" (Veale, Antonio, Tull, IPDPS
// 2005).
//
// The simulator models the paper's machine: a superscalar core with five
// fixed functional units and eight reconfigurable slots, scheduled by a
// select-free wake-up array, whose configuration manager steers the
// reconfigurable fabric toward the unit mix the queued instructions need
// using partial, idle-only reconfiguration.
//
// Quick start:
//
//	prog, _ := repro.Assemble(`
//	        li r1, 10
//	        li r2, 32
//	        mul r3, r1, r2
//	        halt
//	`)
//	m := repro.NewMachine(prog, repro.Options{Policy: repro.PolicySteering})
//	stats, err := m.Run(1_000_000)
//	fmt.Println(stats.IPC(), m.Reg(3), err)
//
// Deeper control — custom steering bases, gate-level circuit models, the
// wake-up array, the fabric — lives in the internal packages; this facade
// covers the workflows the experiments and examples use.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/queue"
	"repro/internal/rfu"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Program is a decoded instruction sequence (see Assemble).
type Program = isa.Program

// Params sizes the simulated machine; the zero value selects the
// reference machine of the paper's architecture (7-entry window, 8 RFU
// slots, 4-wide issue/retire, 8-cycle span reconfiguration).
type Params = cpu.Params

// Stats is the per-run statistics bundle (cycles, retired instructions,
// IPC, mispredictions, per-unit issue counts, ...).
type Stats = cpu.Stats

// DefaultParams returns the reference machine parameters.
func DefaultParams() Params { return cpu.DefaultParams() }

// Assemble translates assembly source into a Program. See internal/isa
// for the full syntax; the quick version: RISC-style three-operand
// mnemonics, integer registers r0-r31 (r0 reads zero), FP registers
// f0-f31, labels, and li/mv/j/ret pseudo-instructions. Failures are
// *AsmError values carrying the offending source line.
func Assemble(src string) (Program, error) { return isa.Assemble(src) }

// MustAssemble is Assemble for known-good sources; it panics on error.
func MustAssemble(src string) Program { return isa.MustAssemble(src) }

// EncodeProgram serialises a program to its 32-bit binary form — the
// "legacy machine code" representation the architecture executes.
func EncodeProgram(p Program) ([]uint32, error) { return isa.EncodeProgram(p) }

// DecodeProgram parses 32-bit binary instruction words into a Program.
func DecodeProgram(words []uint32) (Program, error) { return isa.DecodeProgram(words) }

// Disassemble renders a program one instruction per line.
func Disassemble(p Program) string { return isa.Disassemble(p) }

// Unit is a fully assembled translation unit: instructions plus the
// initial data image declared by .data sections.
type Unit = isa.Unit

// AssembleUnit assembles a source file that may mix code with .data
// sections (.word/.half/.byte/.float/.space) and the la pseudo. Use
// NewMachineFromUnit to run the result with its data image applied.
func AssembleUnit(src string) (*Unit, error) { return isa.AssembleUnit(src) }

// NewMachineFromUnit builds a machine for the unit's program and writes
// its data segments into the machine's memory.
func NewMachineFromUnit(u *Unit, opt Options) *Machine {
	m := NewMachine(u.Program, opt)
	u.Apply(m.proc.Memory())
	return m
}

// Policy selects the configuration-management strategy of a Machine.
// The type (and its canonical name table) lives in internal/cpu; this
// alias re-exports it, along with each strategy constant. A Policy
// marshals to and from its name as JSON/text, so request schemas can
// carry policy fields directly.
type Policy = cpu.Policy

const (
	// PolicySteering is the paper's configuration manager: per-cycle
	// selection over the steering basis, partial idle-only loading.
	PolicySteering = cpu.PolicySteering
	// PolicyStaticInteger fixes the fabric to the integer steering
	// configuration and never reconfigures.
	PolicyStaticInteger = cpu.PolicyStaticInteger
	// PolicyStaticMemory fixes the fabric to the memory configuration.
	PolicyStaticMemory = cpu.PolicyStaticMemory
	// PolicyStaticFloating fixes the fabric to the floating-point
	// configuration.
	PolicyStaticFloating = cpu.PolicyStaticFloating
	// PolicyNone leaves the fabric empty: only the five fixed units
	// execute instructions (a conventional single-unit-per-type core).
	PolicyNone = cpu.PolicyNone
	// PolicyFullReconfig swaps whole configurations, waiting for the
	// fabric to drain — the predecessor architecture the paper extends.
	PolicyFullReconfig = cpu.PolicyFullReconfig
	// PolicyOracle selects with the exact divider metric; pair it with
	// a small ReconfigLatency for an idealised upper bound.
	PolicyOracle = cpu.PolicyOracle
	// PolicyRandom loads a random basis configuration periodically.
	PolicyRandom = cpu.PolicyRandom
	// PolicyDemand synthesises configurations directly from the queue's
	// demand every cycle, with no predefined basis — the paper's §5
	// future-work direction.
	PolicyDemand = cpu.PolicyDemand
	// PolicyPrefetch is the steering manager plus the phase-aware
	// prediction subsystem: demand-history phase detection and a Markov
	// transition model drive speculative partial reconfigurations on
	// otherwise-unused configuration-bus spans.
	PolicyPrefetch = cpu.PolicyPrefetch
)

// ParsePolicy resolves a policy name (the Policy.String round-trip); the
// error wraps ErrUnknownPolicy.
func ParsePolicy(s string) (Policy, error) { return cpu.ParsePolicy(s) }

// Policies returns every defined policy in declaration order.
func Policies() []Policy { return cpu.Policies() }

// Sentinel errors of the facade. Classify failures with errors.Is —
// formatted messages are not part of the API.
var (
	// ErrCycleLimit: Run/RunContext exhausted its cycle budget before
	// the program's HALT retired.
	ErrCycleLimit = cpu.ErrCycleLimit
	// ErrInvalidParams: a Params field is out of range (see
	// Params.Validate).
	ErrInvalidParams = cpu.ErrInvalidParams
	// ErrUnknownPolicy: ParsePolicy did not recognise the name.
	ErrUnknownPolicy = cpu.ErrUnknownPolicy
)

// AsmError is the error type of Assemble and AssembleUnit: the offending
// 1-based source line plus the underlying cause. Retrieve it with
// errors.As to report source positions.
type AsmError = isa.AsmError

// Basis is a set of three predefined steering configurations.
type Basis = [3]config.Configuration

// DefaultBasis returns the calibrated Table 1 steering basis
// (integer / memory / floating).
func DefaultBasis() Basis { return config.DefaultBasis() }

// ParseBasis parses a steering basis from JSON: an array of exactly three
// configurations, each {"name": ..., "units": ["IntALU", ...]}. Units are
// packed into the eight slots in order.
func ParseBasis(data []byte) (Basis, error) { return config.ParseBasis(data) }

// MarshalBasis serialises a steering basis to indented JSON.
func MarshalBasis(b Basis) ([]byte, error) { return config.MarshalBasis(b) }

// Options configures a Machine beyond its sizing parameters.
type Options struct {
	// Params sizes the machine; zero fields take defaults.
	Params Params
	// Policy selects configuration management (default PolicySteering).
	Policy Policy
	// Seed feeds PolicyRandom.
	Seed int64
	// Basis overrides the predefined steering configurations for the
	// steering, prefetch, full-reconfig, oracle and static policies (nil
	// uses the default Table 1 basis). PolicyRandom draws from the
	// default basis and PolicyDemand synthesises its own
	// configurations; both ignore it.
	Basis *Basis
	// MinResidency suppresses configuration reloads for this many
	// cycles after each load — the X11 thrash damper. Applies to
	// PolicySteering, PolicyPrefetch and PolicyOracle.
	MinResidency int
}

// Validate reports whether the options describe a machine NewMachine
// can build and run: a defined policy, parameters Params.Validate
// accepts, and a non-negative MinResidency. It is the one spec check of
// rssd and rsssim; NewMachine itself does not call it. Errors wrap
// ErrUnknownPolicy or ErrInvalidParams.
func (o Options) Validate() error {
	if !o.Policy.Valid() {
		return fmt.Errorf("policy %d out of range: %w", int(o.Policy), ErrUnknownPolicy)
	}
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if o.MinResidency < 0 {
		return fmt.Errorf("minResidency must be non-negative, got %d: %w",
			o.MinResidency, ErrInvalidParams)
	}
	return nil
}

// Machine is one simulated processor instance bound to a program.
type Machine struct {
	proc     *cpu.Processor
	policy   Policy
	steering *core.Manager // non-nil for steering-family policies
	tracer   *trace.Buffer
	probe    *telemetry.Probe
	spans    *span.Recorder
}

// NewMachine builds a machine for the program under the given options.
// It is the one place a Policy becomes a configuration manager. It does
// not validate: check request-supplied options with Options.Validate
// first.
func NewMachine(prog Program, opt Options) *Machine {
	p := cpu.New(prog, opt.Params, nil)
	m := &Machine{proc: p, policy: opt.Policy}
	basis := config.DefaultBasis()
	if opt.Basis != nil {
		basis = *opt.Basis
	}
	switch opt.Policy {
	case PolicySteering:
		s := baseline.NewSteeringBasis(p.Fabric(), basis)
		s.M.MinResidency = opt.MinResidency
		m.steering = s.M
		p.SetManager(s)
	case PolicyStaticInteger:
		p.Fabric().Install(basis[0])
	case PolicyStaticMemory:
		p.Fabric().Install(basis[1])
	case PolicyStaticFloating:
		p.Fabric().Install(basis[2])
	case PolicyNone:
		// Empty fabric, FFUs only.
	case PolicyFullReconfig:
		fr := baseline.NewFullReconfigBasis(p.Fabric(), basis)
		p.SetManager(fr)
	case PolicyOracle:
		o := baseline.NewOracleBasis(p.Fabric(), basis)
		o.Core().MinResidency = opt.MinResidency
		p.SetManager(o)
	case PolicyRandom:
		r := baseline.NewRandom(p.Fabric(), opt.Seed)
		p.SetManager(r)
	case PolicyDemand:
		d := core.NewDemandManager(p.Fabric())
		p.SetManager(d)
	case PolicyPrefetch:
		pf := predict.NewManagerBasis(p.Fabric(), basis, predict.Config{
			HistoryDepth: opt.Params.PrefetchHistoryDepth,
			Confidence:   opt.Params.PrefetchConfidence,
		})
		pf.Core().MinResidency = opt.MinResidency
		m.steering = pf.Core()
		p.SetManager(pf)
	default:
		panic(fmt.Sprintf("repro: unknown policy %d", opt.Policy))
	}
	return m
}

// Estimate is the analytic queueing model's prediction for one program
// under one policy and parameter set — see internal/queue for the model
// and its validity envelope.
type Estimate = queue.Estimate

// EstimateIPC answers the question a simulated run answers — "what IPC
// does this program achieve under this configuration?" — analytically,
// in microseconds instead of simulated cycles, using the M/M/c queueing
// model of the FFU/RFU pool. The estimate carries a documented validity
// envelope and a mean error against the simulator under 10% on the
// X1–X6 reference workloads (EXPERIMENTS.md X21): rank configurations
// with EstimateIPC, certify the survivors with Machine.Run. Invalid
// parameters return an error wrapping ErrInvalidParams.
func EstimateIPC(prog Program, opt Options) (Estimate, error) {
	var basis *[3]config.Configuration
	if opt.Basis != nil {
		b := *opt.Basis
		basis = &b
	}
	m, err := queue.New(opt.Policy, opt.Params, basis)
	if err != nil {
		return Estimate{}, err
	}
	return m.Estimate(prog)
}

// Run executes until HALT retires or maxCycles elapse; it returns the run
// statistics and an error wrapping ErrCycleLimit when the budget ran
// out. When telemetry is enabled the exporter is flushed at the end of
// the run, and a telemetry export error surfaces here if the run itself
// succeeded. Run is RunContext without cancellation.
func (m *Machine) Run(maxCycles int) (Stats, error) {
	return m.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cancellation: the context is polled every
// cpu.CtxCheckInterval simulated cycles, and on cancellation the run
// stops within one interval, returning the statistics so far and the
// context's error (match it with errors.Is against context.Canceled or
// context.DeadlineExceeded). The machine stays consistent, so a
// cancelled run may be resumed by calling RunContext again.
func (m *Machine) RunContext(ctx context.Context, maxCycles int) (Stats, error) {
	stats, err := m.proc.RunContext(ctx, maxCycles)
	if ferr := m.probe.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("telemetry: %w", ferr)
	}
	return stats, err
}

// Cycle advances the machine one clock.
func (m *Machine) Cycle() { m.proc.Cycle() }

// Halted reports whether the program's HALT has retired.
func (m *Machine) Halted() bool { return m.proc.Halted() }

// Stats returns the statistics so far.
func (m *Machine) Stats() Stats { return m.proc.Stats() }

// Reg reads integer register rN.
func (m *Machine) Reg(n uint8) uint32 { return m.proc.Reg(n) }

// FReg reads floating-point register fN.
func (m *Machine) FReg(n uint8) uint32 { return m.proc.Reg(n + isa.FPBase) }

// SetReg presets integer register rN before a run.
func (m *Machine) SetReg(n uint8, v uint32) { m.proc.SetReg(n, v) }

// WriteWords stores words into data memory starting at addr.
func (m *Machine) WriteWords(addr uint32, words []uint32) {
	m.proc.Memory().WriteWords(addr, words)
}

// ReadWords loads n words from data memory starting at addr.
func (m *Machine) ReadWords(addr uint32, n int) []uint32 {
	return m.proc.Memory().ReadWords(addr, n)
}

// Reconfigurations returns how many RFU span rewrites occurred.
func (m *Machine) Reconfigurations() int { return m.proc.Fabric().Reconfigurations() }

// ConfigurationResidency returns, for steering-family policies, how many
// management cycles each candidate won (current, then the three basis
// configurations) and how many cycles the fabric held a hybrid layout. It
// returns ok=false for non-steering policies.
func (m *Machine) ConfigurationResidency() (selections [arch.NumConfigs]int, hybrid int, ok bool) {
	if m.steering == nil {
		return selections, 0, false
	}
	st := m.steering.Stats()
	return st.Selections, st.HybridCycles, true
}

// SteeringCacheStats returns, for steering-family policies, the packed-
// key steering cache's hit and miss counts over the run. It returns
// ok=false for policies without a core.Manager.
func (m *Machine) SteeringCacheStats() (hits, misses int, ok bool) {
	if m.steering == nil {
		return 0, 0, false
	}
	st := m.steering.Stats()
	return st.CacheHits, st.CacheMisses, true
}

// PrefetchStats is the speculative-prefetch accounting of the prefetch
// policy: spans speculatively loaded, how the speculations ended, the
// configuration-bus spans wasted on wrong guesses, and the workload
// phase boundaries the predictor detected.
type PrefetchStats struct {
	Issued       int `json:"issued"`
	Confirmed    int `json:"confirmed"`
	Mispredicted int `json:"mispredicted"`
	Cancelled    int `json:"cancelled"`
	WastedSpans  int `json:"wastedSpans"`
	PhaseChanges int `json:"phaseChanges"`
}

// PrefetchStats returns the run's speculative-prefetch counters. It
// returns ok=false for policies other than PolicyPrefetch.
func (m *Machine) PrefetchStats() (PrefetchStats, bool) {
	if m.policy != PolicyPrefetch || m.steering == nil {
		return PrefetchStats{}, false
	}
	st := m.steering.Stats()
	return PrefetchStats{
		Issued:       st.PrefetchIssued,
		Confirmed:    st.PrefetchConfirmed,
		Mispredicted: st.PrefetchMispredicted,
		Cancelled:    st.PrefetchCancelled,
		WastedSpans:  st.PrefetchWastedSpans,
		PhaseChanges: st.PhaseChanges,
	}, true
}

// FaultStats is the fabric's cumulative fault-injection accounting (see
// Params.FaultTransientRate and friends).
type FaultStats = rfu.FaultStats

// FaultStats returns the run's fault-injection counters. It returns
// ok=false when fault injection was not enabled for this machine.
func (m *Machine) FaultStats() (st FaultStats, ok bool) {
	f := m.proc.Fabric()
	if !f.FaultsEnabled() {
		return FaultStats{}, false
	}
	return f.FaultStats(), true
}

// Report renders a human-readable run summary.
func (m *Machine) Report() string {
	s := m.proc.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "policy:          %s\n", m.policy)
	fmt.Fprintf(&b, "cycles:          %d\n", s.Cycles)
	fmt.Fprintf(&b, "retired:         %d\n", s.Retired)
	fmt.Fprintf(&b, "IPC:             %.3f\n", s.IPC())
	fmt.Fprintf(&b, "issued by type:  %v\n", s.IssuedByType)
	if s.Cycles > 0 {
		frac := func(n int) float64 { return 100 * float64(n) / float64(s.Cycles) }
		fmt.Fprintf(&b, "cycle buckets:   issuing %.1f%%, unit-bound %.1f%%, dep-bound %.1f%%, frontend %.1f%%\n",
			frac(s.CyclesIssued), frac(s.CyclesUnits), frac(s.CyclesDeps), frac(s.CyclesFrontend))
	}
	fmt.Fprintf(&b, "branches:        %d resolved, %d mispredicted, %d flushed\n",
		s.BranchesResolved, s.Mispredicts, s.Flushed)
	acc, n := m.proc.Predictor().Accuracy()
	if n > 0 {
		fmt.Fprintf(&b, "predictor:       %.1f%% over %d branches\n", 100*acc, n)
	}
	fmt.Fprintf(&b, "dcache:          %d hits, %d misses\n", m.proc.DCache().Hits(), m.proc.DCache().Misses())
	tcr, tn := m.proc.TraceCache().HitRate()
	if tn > 0 {
		fmt.Fprintf(&b, "trace cache:     %.1f%% hit rate over %d lookups\n", 100*tcr, tn)
	}
	fmt.Fprintf(&b, "reconfigs:       %d spans (%d slot-cycles)\n",
		m.proc.Fabric().Reconfigurations(), m.proc.Fabric().ReconfigurationCycles())
	if s.Cycles > 0 {
		// 13 unit positions: 8 RFU slots + 5 FFUs.
		util := float64(m.proc.Fabric().BusyCycles()) / float64(s.Cycles*13)
		fmt.Fprintf(&b, "unit utilisation: %.1f%% of slot+FFU cycles executing\n", 100*util)
	}
	if sel, hybrid, ok := m.ConfigurationResidency(); ok {
		fmt.Fprintf(&b, "selections:      current=%d integer=%d memory=%d floating=%d (hybrid cycles: %d)\n",
			sel[0], sel[1], sel[2], sel[3], hybrid)
	}
	if hits, misses, ok := m.SteeringCacheStats(); ok && hits+misses > 0 {
		fmt.Fprintf(&b, "steering cache:  %.1f%% hit rate over %d lookups\n",
			100*float64(hits)/float64(hits+misses), hits+misses)
	}
	if ps, ok := m.PrefetchStats(); ok {
		fmt.Fprintf(&b, "prefetch:        %d spans issued, %d confirmed, %d mispredicted, %d cancelled (%d wasted spans)\n",
			ps.Issued, ps.Confirmed, ps.Mispredicted, ps.Cancelled, ps.WastedSpans)
		fmt.Fprintf(&b, "phase changes:   %d detected\n", ps.PhaseChanges)
	}
	if fs, ok := m.FaultStats(); ok {
		fmt.Fprintf(&b, "faults:          %d transient + %d permanent injected, %d detected (%d scrubs)\n",
			fs.InjectedTransient, fs.InjectedPermanent, fs.Detected, fs.ScrubScans)
		fmt.Fprintf(&b, "repairs:         %d started, %d completed, %d healed by steering, %d slots dead\n",
			fs.RepairsStarted, fs.Repaired, fs.HealedByLoad, fs.DeadSlots)
		if s.Cycles > 0 {
			fmt.Fprintf(&b, "degraded:        %.2f%% of slot-cycles masked\n",
				100*float64(fs.MaskedSlotCycles)/float64(s.Cycles*arch.NumRFUSlots))
		}
	}
	fmt.Fprintf(&b, "final fabric:    %v\n", m.proc.Fabric().Allocation().Slots)
	return b.String()
}

// Processor exposes the underlying simulator for advanced use (custom
// policies, direct fabric access).
func (m *Machine) Processor() *cpu.Processor { return m.proc }

// ReportJSON renders the run's statistics as compact JSON for
// downstream tooling: the cpu.Stats fields plus derived rates and
// subsystem counters. Compact, because a service may hold many reports
// at once; json.Indent renders one for reading.
func (m *Machine) ReportJSON() ([]byte, error) {
	s := m.proc.Stats()
	acc, lookups := m.proc.Predictor().Accuracy()
	tcRate, tcLookups := m.proc.TraceCache().HitRate()
	sel, hybrid, steering := m.ConfigurationResidency()
	doc := struct {
		Policy string    `json:"policy"`
		Stats  cpu.Stats `json:"stats"`
		IPC    float64   `json:"ipc"`

		PredictorAccuracy float64 `json:"predictorAccuracy"`
		PredictorLookups  int     `json:"predictorLookups"`
		TraceCacheHitRate float64 `json:"traceCacheHitRate"`
		TraceCacheLookups int     `json:"traceCacheLookups"`
		DCacheHits        int     `json:"dcacheHits"`
		DCacheMisses      int     `json:"dcacheMisses"`

		Reconfigurations      int    `json:"reconfigurations"`
		ReconfigurationCycles int    `json:"reconfigurationCycles"`
		Steering              bool   `json:"steering"`
		Selections            [4]int `json:"selections,omitempty"`
		HybridCycles          int    `json:"hybridCycles,omitempty"`

		SteeringCacheHits   int `json:"steeringCacheHits,omitempty"`
		SteeringCacheMisses int `json:"steeringCacheMisses,omitempty"`

		Prefetch *PrefetchStats `json:"prefetch,omitempty"`
		Faults   *FaultStats    `json:"faults,omitempty"`
	}{
		Policy:                m.policy.String(),
		Stats:                 s,
		IPC:                   s.IPC(),
		PredictorAccuracy:     acc,
		PredictorLookups:      lookups,
		TraceCacheHitRate:     tcRate,
		TraceCacheLookups:     tcLookups,
		DCacheHits:            m.proc.DCache().Hits(),
		DCacheMisses:          m.proc.DCache().Misses(),
		Reconfigurations:      m.proc.Fabric().Reconfigurations(),
		ReconfigurationCycles: m.proc.Fabric().ReconfigurationCycles(),
		Steering:              steering,
		Selections:            sel,
		HybridCycles:          hybrid,
	}
	doc.SteeringCacheHits, doc.SteeringCacheMisses, _ = m.SteeringCacheStats()
	if ps, ok := m.PrefetchStats(); ok {
		doc.Prefetch = &ps
	}
	if fs, ok := m.FaultStats(); ok {
		doc.Faults = &fs
	}
	return json.Marshal(doc)
}

// DefaultMetricsInterval is the sampling interval EnableTelemetry uses
// when none is given.
const DefaultMetricsInterval = 100

// EnableTelemetry attaches a telemetry probe sampling the machine every
// interval cycles (0 selects DefaultMetricsInterval) and streaming to w
// in the given format: "jsonl" (samples + steering decisions, one JSON
// object per line), "csv" (sample time series), or "prom" (Prometheus
// text snapshot of the cumulative counters, written at flush). Call
// before Run; Run flushes the exporter when it finishes. The returned
// probe exposes the metrics registry for programmatic reads.
func (m *Machine) EnableTelemetry(w io.Writer, format string, interval int) (*telemetry.Probe, error) {
	if interval == 0 {
		interval = DefaultMetricsInterval
	}
	if interval < 0 {
		return nil, fmt.Errorf("repro: metrics interval must be positive, got %d", interval)
	}
	probe := telemetry.NewProbe(interval)
	var exp telemetry.Exporter
	switch format {
	case "jsonl":
		exp = telemetry.NewJSONL(w)
	case "csv":
		exp = telemetry.NewCSV(w)
	case "prom":
		exp = telemetry.NewProm(w, probe.Registry())
	default:
		return nil, fmt.Errorf("repro: unknown metrics format %q (known: jsonl, csv, prom)", format)
	}
	probe.SetExporter(exp)
	m.probe = probe
	m.attach(probe)
	return probe, nil
}

// EnableTelemetryExporter attaches a telemetry probe with a custom
// exporter (e.g. a telemetry.Collector for in-memory post-processing).
func (m *Machine) EnableTelemetryExporter(e telemetry.Exporter, interval int) *telemetry.Probe {
	if interval == 0 {
		interval = DefaultMetricsInterval
	}
	probe := telemetry.NewProbe(interval)
	probe.SetExporter(e)
	m.probe = probe
	m.attach(probe)
	return probe
}

// attach adds an observer to the machine's event stream, alongside any
// already attached. The processor hands the stream to the fabric, and
// every configuration policy reports through the fabric it steers.
func (m *Machine) attach(s obs.Sink) { m.proc.SetSink(obs.Join(m.proc.Sink(), s)) }

// Telemetry returns the attached probe, or nil when telemetry is off.
func (m *Machine) Telemetry() *telemetry.Probe { return m.probe }

// SpanConfig sizes the span recorder and its flight-recorder triggers;
// the zero value selects the defaults (see internal/span.Config).
type SpanConfig = span.Config

// EnableSpans attaches a span recorder capturing duration-bearing
// epochs — reconfiguration bus transactions, repair windows, prefetch
// speculations, detected workload phases, steering-cache flush epochs
// — plus fault instants and flight-recorder anomaly triggers. Call
// before Run; export the trace afterwards with the recorder's
// WriteChromeTrace / WriteJSONL, or dump the flight ring with
// DumpFlight. Trailing epochs (phase, cache, speculation, repairs)
// close when the program's HALT retires; a cancelled or budget-exhausted
// run leaves them open so a resumed run keeps recording. The recorder is
// a pure observer: runs are bit-identical with it attached or not.
func (m *Machine) EnableSpans(cfg SpanConfig) *span.Recorder {
	m.spans = span.NewRecorder(cfg, arch.NumRFUSlots)
	m.attach(m.spans)
	return m.spans
}

// Spans returns the attached span recorder, or nil when span tracing
// is off.
func (m *Machine) Spans() *span.Recorder { return m.spans }

// FlushTelemetry flushes the telemetry exporter and reports the first
// export error of the run — useful when driving the machine with Cycle
// instead of Run.
func (m *Machine) FlushTelemetry() error { return m.probe.Flush() }

// EnableTracing records up to limit pipeline events (fetch, dispatch,
// issue, retire, flush, reconfiguration) for TraceLog and Pipeview. Call
// before Run. When the run produces more events than the limit, the
// oldest are dropped.
func (m *Machine) EnableTracing(limit int) { m.EnableTracingUntil(limit, math.MaxInt) }

// EnableTracingUntil is EnableTracing restricted to events at or before
// lastCycle, so the beginning of a long run survives the buffer limit.
func (m *Machine) EnableTracingUntil(limit, lastCycle int) {
	m.tracer = trace.NewBuffer(limit)
	m.tracer.LastCycle = lastCycle
	m.attach(m.tracer)
}

// TraceLog renders the recorded pipeline events one per line. Empty when
// tracing was not enabled.
func (m *Machine) TraceLog() string {
	if m.tracer == nil {
		return ""
	}
	return trace.Log(m.tracer.Events())
}

// Pipeview renders the recorded events as a pipeline chart (one row per
// instruction, one column per cycle) clipped to [fromCycle, toCycle].
func (m *Machine) Pipeview(fromCycle, toCycle int) string {
	if m.tracer == nil {
		return ""
	}
	return trace.Pipeview(m.tracer.Events(), fromCycle, toCycle)
}

// Workload re-exports: the kernel library and synthetic generator.

// Kernel is one benchmark program with setup and validation.
type Kernel = workload.Kernel

// Kernels returns the benchmark kernel library.
func Kernels() []*Kernel { return workload.Kernels() }

// KernelByName returns the named kernel or nil.
func KernelByName(name string) *Kernel { return workload.KernelByName(name) }

// Mix is a unit-type demand profile for synthetic workloads.
type Mix = workload.Mix

// Phase is one segment of a synthetic workload.
type Phase = workload.Phase

// Standard synthetic mixes.
var (
	MixIntHeavy = workload.MixIntHeavy
	MixFPHeavy  = workload.MixFPHeavy
	MixMemHeavy = workload.MixMemHeavy
	MixMDUHeavy = workload.MixMDUHeavy
	MixUniform  = workload.MixUniform
)

// Synthesize generates a phase-structured synthetic program.
func Synthesize(phases []Phase, seed int64) Program {
	return workload.Synthesize(phases, workload.SynthParams{Seed: seed})
}

// AlternatingPhases builds a phase list switching between the
// integer-heavy and FP-heavy mixes every period instructions — the
// phase-shifting workload shape the prefetch policy's predictor is
// designed to exploit.
func AlternatingPhases(total, period int) []Phase {
	return workload.AlternatingPhases(total, period)
}

// RunKernel builds a machine for the kernel (setup applied), runs it, and
// validates the outcome.
func RunKernel(k *Kernel, opt Options, maxCycles int) (Stats, error) {
	m := NewMachine(k.Program(), opt)
	if k.Setup != nil {
		k.Setup(m.proc.Memory(), m.proc.SetReg)
	}
	stats, err := m.Run(maxCycles)
	if err != nil {
		return stats, err
	}
	if k.Validate != nil {
		if err := k.Validate(m.proc.Reg, m.proc.Memory()); err != nil {
			return stats, fmt.Errorf("kernel %s validation: %w", k.Name, err)
		}
	}
	return stats, nil
}
