package telemetry

import (
	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Sample is one row of the per-cycle time series: the machine state at a
// sampling boundary plus the event activity accumulated since the
// previous sample. Interval* fields cover (prevSampleCycle, cycle];
// everything else is the instantaneous or cumulative state at cycle.
//
// The JSON field set is a stable schema, pinned by a golden test: add
// fields freely, but renaming or retyping one is a breaking change for
// downstream tooling.
type Sample struct {
	Cycle int `json:"cycle"`
	// Core labels which cluster core emitted the row; 0 for a scalar
	// machine, so single-core streams are unchanged apart from the
	// explicit label.
	Core            int     `json:"core"`
	Retired         int     `json:"retired"`
	IntervalRetired int     `json:"intervalRetired"`
	IntervalIPC     float64 `json:"intervalIPC"`

	// Occupancy is the number of in-flight window (RUU) entries.
	Occupancy int `json:"occupancy"`
	// Demand counts the unit requirements of the unscheduled window
	// instructions, per unit type — the selection unit's input vector.
	Demand arch.Counts `json:"demand"`
	// IntervalIssued counts grants per unit type since the last sample.
	IntervalIssued arch.Counts `json:"intervalIssued"`

	// RFUUnits / RFUBusy count configured and currently-executing
	// reconfigurable units per type; FFUBusy the executing fixed units.
	RFUUnits arch.Counts `json:"rfuUnits"`
	RFUBusy  arch.Counts `json:"rfuBusy"`
	FFUBusy  arch.Counts `json:"ffuBusy"`
	// Slots is the live resource allocation vector.
	Slots [arch.NumRFUSlots]arch.Encoding `json:"slots"`

	// CEMValid reports whether a steering-family policy supplied
	// selection data this interval; when false the CEM fields are zero.
	CEMValid bool `json:"cemValid"`
	// CEMErrors holds the four configuration error metrics of the most
	// recent selection pass (current, then the three basis configs).
	CEMErrors [arch.NumConfigs]int `json:"cemErrors"`
	// CEMChoice is the winning candidate index of that pass.
	CEMChoice int `json:"cemChoice"`

	// ReconfigSlots counts slots mid-reconfiguration right now;
	// IntervalReconfigs counts span rewrites started this interval.
	ReconfigSlots     int `json:"reconfigSlots"`
	IntervalReconfigs int `json:"intervalReconfigs"`

	IntervalFlushed        int `json:"intervalFlushed"`
	IntervalDispatchStalls int `json:"intervalDispatchStalls"`

	// Steering-cache lookups this interval: hits replay a memoized
	// selection, misses run the CEM generators.
	IntervalSteerCacheHits   int `json:"intervalSteerCacheHits"`
	IntervalSteerCacheMisses int `json:"intervalSteerCacheMisses"`

	// Speculative-prefetch activity this interval (zero unless the
	// prefetch policy is active): spans speculatively loaded, and
	// speculation outcomes resolved.
	IntervalPrefetchIssued       int `json:"intervalPrefetchIssued"`
	IntervalPrefetchConfirmed    int `json:"intervalPrefetchConfirmed"`
	IntervalPrefetchMispredicted int `json:"intervalPrefetchMispredicted"`
	IntervalPrefetchCancelled    int `json:"intervalPrefetchCancelled"`

	// Fault-injection activity this interval (zero when the injector
	// is disabled): upsets struck, corrupt slots the scrub scan
	// detected, slots repaired, and scrub scans run.
	IntervalFaultsInjected int `json:"intervalFaultsInjected"`
	IntervalFaultsDetected int `json:"intervalFaultsDetected"`
	IntervalFaultsRepaired int `json:"intervalFaultsRepaired"`
	IntervalScrubScans     int `json:"intervalScrubScans"`
	// MaskedSlots counts slots currently unavailable to steering and
	// dispatch because of faults (corrupt, detected, repairing or
	// dead) at the sampling boundary.
	MaskedSlots int `json:"maskedSlots"`

	// Interval bottleneck classification: every cycle of the interval
	// falls into exactly one of the four buckets.
	BucketIssued   int `json:"bucketIssued"`
	BucketUnits    int `json:"bucketUnits"`
	BucketDeps     int `json:"bucketDeps"`
	BucketFrontend int `json:"bucketFrontend"`
}

// Decision is one steering-decision log record: a configuration switch
// the loader actually started, stamped with its cycle and core.
type Decision struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose manager made the decision (0
	// for a scalar machine).
	Core int `json:"core"`
	obs.Decision
}

// Fault-event names, the closed vocabulary of FaultEvent.Event.
const (
	FaultInjectedTransient = "injected-transient"
	FaultInjectedPermanent = "injected-permanent"
	FaultDetected          = "detected"
	FaultRepairStart       = "repair-start"
	FaultRepaired          = "repaired"
	FaultDead              = "dead"
)

// FaultEvent is one fault-injection log record: an upset striking a
// slot, the scrub scan detecting it, a repair starting or completing,
// or a slot being declared permanently dead. Like steering decisions,
// fault events are not sampled — every transition is logged.
type FaultEvent struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose fabric view logged the event
	// (0 for a scalar machine; in merged mode the master core owns the
	// shared fabric's fault machinery).
	Core int `json:"core"`
	// Slot is the reconfigurable slot the event concerns.
	Slot int `json:"slot"`
	// Event is one of the Fault* constants above.
	Event string `json:"event"`
}

// Prefetch-event names, the closed vocabulary of PrefetchEvent.Event.
const (
	PrefetchIssue       = "issue"
	PrefetchConfirm     = obs.OutcomeConfirm
	PrefetchMispredict  = obs.OutcomeMispredict
	PrefetchCancel      = obs.OutcomeCancel
	PrefetchPhaseChange = "phase-change"
)

// PrefetchEvent is one speculative-prefetch log record from the
// prediction subsystem (internal/predict): spans speculatively loaded
// for a predicted configuration, the speculation's outcome (confirm /
// mispredict / cancel), or a detected workload phase change. Like
// steering decisions and fault events, prefetch events are not sampled
// — every transition is logged. For issue events Spans counts the spans
// loaded this cycle, for mispredict/cancel the speculation's total
// spans — the bus bandwidth wasted; Config is empty for phase changes.
type PrefetchEvent struct {
	Cycle int `json:"cycle"`
	// Core labels the cluster core whose predictor logged the event (0
	// for a scalar machine).
	Core int `json:"core"`
	// Event is one of the Prefetch* constants above.
	Event string `json:"event"`
	obs.Prefetch
}

// Probe is the telemetry consumer of one machine's event stream
// (obs.Sink): the processor, configuration manager and fabric feed it
// events; every interval cycles it drains into an Exporter. The hot-path
// hooks are allocation-free: records are staged in probe-owned scratch
// before the exporter sees them.
type Probe struct {
	obs.Nop

	interval int
	exp      Exporter
	reg      *Registry
	err      error // first exporter error; surfaced by Flush

	cycle int
	// core stamps every emitted record with the owning cluster core's
	// index (0 for scalar machines — see SetCore).
	core int

	// Registry-backed cumulative metrics.
	cCycles         *Counter
	cRetired        *Counter
	cDispatched     *Counter
	cFlushed        *Counter
	cDispatchStalls *Counter
	cIssued         [arch.NumUnitTypes]*Counter
	cSelections     [arch.NumConfigs]*Counter
	cDecisions      *Counter
	cReconfigSpans  *Counter
	cReconfigSlotCy *Counter
	cSteerHits      *Counter
	cSteerMisses    *Counter
	cPrefIssued     *Counter
	cPrefConfirmed  *Counter
	cPrefMispred    *Counter
	cPrefCancelled  *Counter
	cPrefWasted     *Counter
	cPhaseChanges   *Counter
	cFaultsTrans    *Counter
	cFaultsPerm     *Counter
	cFaultsDetected *Counter
	cFaultsRepaired *Counter
	cScrubScans     *Counter
	cMaskedSlotCy   *Counter
	gOccupancy      *Gauge
	gReconfigSlots  *Gauge
	gCEMError       [arch.NumConfigs]*Gauge
	hOccupancy      *Histogram

	// sample is the row being built: the event hooks accumulate its
	// Interval* counters and latest CEM pass, EmitSample fills in the
	// machine snapshot, exports it and starts the next row. Exporters
	// copy or encode it before returning.
	sample Sample

	// Cumulative values at the previous sample, for interval deltas.
	lastRetired int
	lastBuckets [4]int

	// Event-record scratch, handed to the exporter like sample.
	decision Decision
	fault    FaultEvent
	prefetch PrefetchEvent
}

// NewProbe builds a probe sampling every interval cycles (interval must
// be positive). Attach an exporter with SetExporter before the run; a
// probe without an exporter still maintains its registry.
func NewProbe(interval int) *Probe {
	if interval <= 0 {
		panic("telemetry: sampling interval must be positive")
	}
	reg := NewRegistry()
	p := &Probe{interval: interval, reg: reg}
	p.cCycles = reg.NewCounter("rsssim_cycles_total", "simulated cycles")
	p.cRetired = reg.NewCounter("rsssim_retired_total", "retired instructions")
	p.cDispatched = reg.NewCounter("rsssim_dispatched_total", "dispatched instructions")
	p.cFlushed = reg.NewCounter("rsssim_flushed_total", "instructions squashed by misprediction recovery")
	p.cDispatchStalls = reg.NewCounter("rsssim_dispatch_stalls_total", "dispatch attempts blocked by a full window")
	for t := 0; t < arch.NumUnitTypes; t++ {
		p.cIssued[t] = reg.NewCounter("rsssim_issued_total", "instructions granted per unit type",
			Label{"unit", arch.UnitType(t).String()})
	}
	for i := 0; i < arch.NumConfigs; i++ {
		p.cSelections[i] = reg.NewCounter("rsssim_selections_total", "selection-unit wins per candidate configuration",
			Label{"config", configLabel(i)})
		p.gCEMError[i] = reg.NewGauge("rsssim_cem_error", "latest configuration error metric per candidate",
			Label{"config", configLabel(i)})
	}
	p.cDecisions = reg.NewCounter("rsssim_steering_decisions_total", "configuration switches the loader started")
	p.cReconfigSpans = reg.NewCounter("rsssim_reconfig_spans_total", "RFU span rewrites started")
	p.cReconfigSlotCy = reg.NewCounter("rsssim_reconfig_slot_cycles_total", "slot-cycles of reconfiguration started")
	p.cSteerHits = reg.NewCounter("rsssim_steering_cache_hits_total", "steering-cache lookups served from the packed-key table")
	p.cSteerMisses = reg.NewCounter("rsssim_steering_cache_misses_total", "steering-cache lookups that ran the CEM generators")
	p.cPrefIssued = reg.NewCounter("rsssim_prefetch_issued_total", "speculative span rewrites the prefetch policy started")
	p.cPrefConfirmed = reg.NewCounter("rsssim_prefetch_confirmed_total", "speculations confirmed by a matching demand shift")
	p.cPrefMispred = reg.NewCounter("rsssim_prefetch_mispredicted_total", "speculations ended by demand selecting a different configuration")
	p.cPrefCancelled = reg.NewCounter("rsssim_prefetch_cancelled_total", "speculations abandoned without a demand shift")
	p.cPrefWasted = reg.NewCounter("rsssim_prefetch_wasted_spans_total", "configuration-bus spans charged to mispredicted or cancelled speculations")
	p.cPhaseChanges = reg.NewCounter("rsssim_phase_changes_total", "workload phase boundaries the demand-history detector flagged")
	p.cFaultsTrans = reg.NewCounter("rsssim_faults_injected_total", "configuration upsets injected per kind",
		Label{"kind", "transient"})
	p.cFaultsPerm = reg.NewCounter("rsssim_faults_injected_total", "configuration upsets injected per kind",
		Label{"kind", "permanent"})
	p.cFaultsDetected = reg.NewCounter("rsssim_faults_detected_total", "corrupt slots the readback scrub detected")
	p.cFaultsRepaired = reg.NewCounter("rsssim_faults_repaired_total", "slots restored by repair reconfiguration")
	p.cScrubScans = reg.NewCounter("rsssim_scrub_scans_total", "readback scrub scans run")
	p.cMaskedSlotCy = reg.NewCounter("rsssim_masked_slot_cycles_total", "slot-cycles lost to fault masking")
	p.gOccupancy = reg.NewGauge("rsssim_window_occupancy", "in-flight window entries at the last sample")
	p.gReconfigSlots = reg.NewGauge("rsssim_reconfiguring_slots", "slots mid-reconfiguration at the last sample")
	p.hOccupancy = reg.NewHistogram("rsssim_window_occupancy_sampled", "window occupancy distribution over samples",
		[]int64{0, 1, 2, 3, 4, 5, 6, 7, 15, 31})
	return p
}

// configLabel names candidate i for metric labels.
func configLabel(i int) string {
	if i == 0 {
		return "current"
	}
	return "basis" + string(rune('0'+i))
}

// SetExporter attaches the sample/decision destination.
func (p *Probe) SetExporter(e Exporter) { p.exp = e }

// SetCore sets the cluster-core index stamped onto every record this
// probe emits. Scalar machines leave it at 0; the cluster layer gives
// each core its own probe (often sharing one exporter) so streams stay
// attributable after interleaving.
func (p *Probe) SetCore(core int) { p.core = core }

// Registry exposes the probe's metric registry (for the Prometheus
// exporter and report code).
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Interval returns the sampling interval in cycles.
func (p *Probe) Interval() int {
	if p == nil {
		return 0
	}
	return p.interval
}

// note keeps the first exporter error for Flush.
func (p *Probe) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// --- obs.Sink hooks (allocation-free) ----------------------------------

// BeginCycle marks the start of simulated cycle c; decision and sample
// records carry this cycle number.
func (p *Probe) BeginCycle(c, _ int) {
	p.cycle = c
	p.cCycles.Inc()
}

// EndCycle emits a sample when the cycle just finished is a sampling
// boundary.
func (p *Probe) EndCycle(src obs.Source) {
	if p.cycle%p.interval == 0 {
		p.EmitSample(src.Snapshot())
	}
}

// Dispatch records one instruction entering the window.
func (p *Probe) Dispatch(uint64, uint32, isa.Inst, int) { p.cDispatched.Inc() }

// DispatchStall records a dispatch attempt blocked by a full window.
func (p *Probe) DispatchStall() {
	p.cDispatchStalls.Inc()
	p.sample.IntervalDispatchStalls++
}

// Issue records one grant to a unit of the instruction's type.
func (p *Probe) Issue(_ uint64, _ uint32, in isa.Inst, _ int) {
	t := in.Unit()
	p.cIssued[t].Inc()
	p.sample.IntervalIssued[t]++
}

// Retire records one instruction committing.
func (p *Probe) Retire(uint64, uint32) { p.cRetired.Inc() }

// Squash records one instruction flushed by misprediction recovery.
func (p *Probe) Squash(uint64, uint32, isa.Inst) {
	p.cFlushed.Inc()
	p.sample.IntervalFlushed++
}

// Selection records one selection-unit pass: the four CEM scores and the
// winning candidate.
func (p *Probe) Selection(errors [arch.NumConfigs]int, choice int) {
	p.sample.CEMValid = true
	p.sample.CEMErrors = errors
	p.sample.CEMChoice = choice
	p.cSelections[choice].Inc()
	for i, e := range errors {
		p.gCEMError[i].Set(int64(e))
	}
}

// SteerCacheLookup records one steering-cache probe: a hit replays a
// memoized selection, a miss runs the CEM generators and fills the line.
func (p *Probe) SteerCacheLookup(hit bool) {
	if hit {
		p.cSteerHits.Inc()
		p.sample.IntervalSteerCacheHits++
	} else {
		p.cSteerMisses.Inc()
		p.sample.IntervalSteerCacheMisses++
	}
}

// ConfigSwitch logs one steering decision, stamped with the cycle and
// forwarded to the exporter immediately (decisions are not sampled —
// every switch is logged).
func (p *Probe) ConfigSwitch(d obs.Decision) {
	p.cDecisions.Inc()
	if p.exp != nil {
		p.decision = Decision{Cycle: p.cycle, Core: p.core, Decision: d}
		p.note(p.exp.Decision(&p.decision))
	}
}

// faultNames maps fault transitions to FaultEvent.Event; a steering load
// healing a corrupt slot logs as a repair.
var faultNames = [...]string{
	obs.FaultInjectedTransient: FaultInjectedTransient,
	obs.FaultInjectedPermanent: FaultInjectedPermanent,
	obs.FaultDetected:          FaultDetected,
	obs.FaultRepairStart:       FaultRepairStart,
	obs.FaultRepaired:          FaultRepaired,
	obs.FaultHealed:            FaultRepaired,
	obs.FaultDead:              FaultDead,
}

// Fault logs one fault-injection state transition for slot: counted on
// the registry and forwarded to the exporter immediately (fault events
// are not sampled).
func (p *Probe) Fault(slot int, kind obs.FaultKind) {
	switch kind {
	case obs.FaultInjectedTransient:
		p.cFaultsTrans.Inc()
		p.sample.IntervalFaultsInjected++
	case obs.FaultInjectedPermanent:
		p.cFaultsPerm.Inc()
		p.sample.IntervalFaultsInjected++
	case obs.FaultDetected:
		p.cFaultsDetected.Inc()
		p.sample.IntervalFaultsDetected++
	case obs.FaultRepaired, obs.FaultHealed:
		p.cFaultsRepaired.Inc()
		p.sample.IntervalFaultsRepaired++
	}
	if p.exp != nil {
		p.fault = FaultEvent{Cycle: p.cycle, Core: p.core, Slot: slot, Event: faultNames[kind]}
		p.note(p.exp.Fault(&p.fault))
	}
}

// PrefetchPhase logs a detected workload phase change.
func (p *Probe) PrefetchPhase() {
	p.cPhaseChanges.Inc()
	p.emitPrefetch(PrefetchPhaseChange, obs.Prefetch{})
}

// PrefetchIssue logs speculative span rewrites started this cycle.
func (p *Probe) PrefetchIssue(pf obs.Prefetch) {
	p.cPrefIssued.Add(uint64(pf.Spans))
	p.sample.IntervalPrefetchIssued += pf.Spans
	p.emitPrefetch(PrefetchIssue, pf)
}

// PrefetchResolve logs a speculation's outcome; mispredicted and
// cancelled speculations also charge their spans as wasted bus
// bandwidth.
func (p *Probe) PrefetchResolve(outcome string, pf obs.Prefetch) {
	switch outcome {
	case obs.OutcomeConfirm:
		p.cPrefConfirmed.Inc()
		p.sample.IntervalPrefetchConfirmed++
	case obs.OutcomeMispredict:
		p.cPrefMispred.Inc()
		p.cPrefWasted.Add(uint64(pf.Spans))
		p.sample.IntervalPrefetchMispredicted++
	case obs.OutcomeCancel:
		p.cPrefCancelled.Inc()
		p.cPrefWasted.Add(uint64(pf.Spans))
		p.sample.IntervalPrefetchCancelled++
	}
	p.emitPrefetch(outcome, pf)
}

// emitPrefetch forwards one prefetch record to the exporter immediately
// (prefetch events are not sampled).
func (p *Probe) emitPrefetch(event string, pf obs.Prefetch) {
	if p.exp != nil {
		p.prefetch = PrefetchEvent{Cycle: p.cycle, Core: p.core, Event: event, Prefetch: pf}
		p.note(p.exp.Prefetch(&p.prefetch))
	}
}

// ScrubScan records one readback scrub pass over the fabric.
func (p *Probe) ScrubScan() {
	p.cScrubScans.Inc()
	p.sample.IntervalScrubScans++
}

// MaskedSlotCycles accumulates n slot-cycles lost to fault masking.
func (p *Probe) MaskedSlotCycles(n int) { p.cMaskedSlotCy.Add(uint64(n)) }

// ReconfigStart records one span rewrite beginning.
func (p *Probe) ReconfigStart(r obs.Reconfig) {
	p.cReconfigSpans.Inc()
	p.cReconfigSlotCy.Add(uint64(r.Width * r.Latency))
	p.sample.IntervalReconfigs++
}

// --- Sampling path ------------------------------------------------------

// EmitSample merges the machine snapshot with the accumulated event
// counts into a Sample, updates the sampled gauges/histograms, hands the
// sample to the exporter and resets the interval accumulators.
func (p *Probe) EmitSample(cs obs.State) {
	s := &p.sample
	s.Cycle = cs.Cycle
	s.Core = p.core
	s.Retired = cs.Retired
	s.IntervalRetired = cs.Retired - p.lastRetired
	s.IntervalIPC = float64(s.IntervalRetired) / float64(p.interval)
	s.Occupancy = cs.Occupancy
	s.Demand = cs.Demand
	s.RFUUnits, s.RFUBusy, s.FFUBusy = cs.RFUUnits, cs.RFUBusy, cs.FFUBusy
	s.Slots = cs.Slots
	s.ReconfigSlots = cs.ReconfigSlots
	s.MaskedSlots = cs.MaskedSlots
	s.BucketIssued = cs.Buckets[0] - p.lastBuckets[0]
	s.BucketUnits = cs.Buckets[1] - p.lastBuckets[1]
	s.BucketDeps = cs.Buckets[2] - p.lastBuckets[2]
	s.BucketFrontend = cs.Buckets[3] - p.lastBuckets[3]

	p.gOccupancy.Set(int64(cs.Occupancy))
	p.gReconfigSlots.Set(int64(cs.ReconfigSlots))
	p.hOccupancy.Observe(int64(cs.Occupancy))
	p.lastRetired = cs.Retired
	p.lastBuckets = cs.Buckets

	if p.exp != nil {
		p.note(p.exp.Sample(s))
	}
	// The next row starts with zero interval counters; the latest CEM
	// pass carries over until a new selection replaces it.
	p.sample = Sample{CEMValid: s.CEMValid, CEMErrors: s.CEMErrors, CEMChoice: s.CEMChoice}
}

// Flush flushes the exporter and returns the first error the telemetry
// pipeline encountered during the run (export errors are deferred to
// here so the hot path never checks them).
func (p *Probe) Flush() error {
	if p == nil {
		return nil
	}
	if p.exp != nil {
		p.note(p.exp.Flush())
	}
	return p.err
}
