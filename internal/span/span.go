// Package span records duration-bearing epochs from both layers of the
// system: simulator spans (reconfiguration bus transactions, repair
// windows, prefetch speculation, workload phases, steering-cache flush
// epochs) and service spans (rssd request lifecycle stages). A simulator
// Recorder is one consumer of the machine's event stream (obs.Sink): it
// is attached once, and the hot loop stays at 0 allocs/cycle with it
// attached or not.
//
// The Recorder is single-goroutine (it lives inside the cycle loop) and
// preallocates all storage up front: a bounded trace buffer for full
// exports and a flight-recorder ring that always keeps the last N
// entries. Anomaly triggers — a fault storm inside one window, or IPC
// collapsing below a fraction of the warm-up baseline — fire a callback
// so the ring can be dumped at the moment of the anomaly rather than at
// end of run. Entry names are static strings; recording never allocates.
package span

import "repro/internal/obs"

// Kind discriminates trace entries. Span kinds carry a duration;
// instant kinds mark a single cycle.
type Kind uint8

const (
	// KindReconfig is a reconfiguration bus transaction rewriting one
	// unit span: Slot is the head slot, A the span width in slots, B
	// the bus latency in cycles.
	KindReconfig Kind = iota
	// KindRepair is a repair window on one slot, from repair start to
	// completion. Aux is the outcome ("repaired" or "dead").
	KindRepair
	// KindSpec is a prefetch speculation from open to resolution. Name
	// is the predicted configuration, Aux the outcome ("confirm",
	// "mispredict", "cancel", or "open" if unresolved at end of run),
	// A the number of speculative bus transactions issued, B the
	// predictor confidence in percent.
	KindSpec
	// KindPhase is one detected workload phase; A is the phase ordinal.
	KindPhase
	// KindCacheEpoch is a steering-cache epoch: the interval between
	// two cache flushes (or run start / end of run).
	KindCacheEpoch
	// KindFault is an instant: a fault event on Slot. Name is the
	// event ("inject", "detect", "heal"); Aux qualifies it
	// ("transient", "permanent", "scrub", "load").
	KindFault
	// KindTrigger is an instant: a flight-recorder anomaly trigger.
	// Name is the reason ("fault-storm", "ipc-collapse"); A carries
	// the offending window measurement, B the comparison threshold.
	KindTrigger

	numKinds
)

// kindNames maps Kind to its JSONL / Chrome-Trace category string.
var kindNames = [numKinds]string{
	"reconfig", "repair", "speculation", "phase", "cache-epoch",
	"fault", "trigger",
}

// String returns the category name for k.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Entry is one recorded span or instant event. All strings are static;
// an Entry is recorded by value into preallocated storage, so the hot
// path never allocates.
type Entry struct {
	Kind  Kind
	Slot  int16 // RFU slot, or -1 when not slot-scoped
	A, B  int32 // kind-specific arguments (see Kind docs)
	Start int64 // cycle the span opened (or the instant's cycle)
	Dur   int64 // span length in cycles; 0 for instants
	Name  string
	Aux   string
}

// Trigger reasons and speculation outcomes, exported for tests and
// callers that inspect the stream.
const (
	TriggerFaultStorm  = "fault-storm"
	TriggerIPCCollapse = "ipc-collapse"

	// OutcomeOpen resolves a speculation still open at end of run; the
	// others are the obs.Outcome* vocabulary.
	OutcomeOpen = "open"
)

// Config sizes the recorder and its anomaly triggers. The zero value
// is usable: every field falls back to the default below.
type Config struct {
	// MaxTrace bounds the full trace buffer (entries). Recording past
	// the bound drops entries (counted in Dropped) rather than
	// growing, so steady-state recording stays allocation-free.
	MaxTrace int
	// FlightSize bounds the flight-recorder ring (entries).
	FlightSize int
	// Window is the trigger-evaluation window in cycles; rounded up
	// to a power of two.
	Window int
	// FaultStorm fires the fault-storm trigger when more than this
	// many fault injections land inside one window.
	FaultStorm int
	// IPCCollapsePct fires the ipc-collapse trigger when a window
	// retires fewer than this percentage of the warm-up baseline
	// (the mean of trigger windows 2-4; window 1 is pipeline ramp).
	IPCCollapsePct int
	// OnTrigger, when set, runs synchronously after each trigger
	// entry is recorded — the hook used to dump the flight ring at
	// the moment of the anomaly. It must not mutate simulator state.
	OnTrigger func(r *Recorder, reason string)
}

// Defaults for Config fields left zero.
const (
	DefaultMaxTrace       = 1 << 16
	DefaultFlightSize     = 4096
	DefaultWindow         = 1024
	DefaultFaultStorm     = 16
	DefaultIPCCollapsePct = 25
)

func (c Config) withDefaults() Config {
	if c.MaxTrace <= 0 {
		c.MaxTrace = DefaultMaxTrace
	}
	if c.FlightSize <= 0 {
		c.FlightSize = DefaultFlightSize
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	// Round the window up to a power of two so the boundary check in
	// BeginCycle is a mask, not a division.
	w := 1
	for w < c.Window {
		w <<= 1
	}
	c.Window = w
	if c.FaultStorm <= 0 {
		c.FaultStorm = DefaultFaultStorm
	}
	if c.IPCCollapsePct <= 0 {
		c.IPCCollapsePct = DefaultIPCCollapsePct
	}
	return c
}

// baselineWindows is the number of post-ramp windows averaged into the
// IPC baseline (windows 2..1+baselineWindows; window 1 is ramp).
const baselineWindows = 3

// Recorder captures simulator spans. It is a pure observer: its
// methods read the values passed in and mutate only recorder state,
// so a run is bit-identical with the recorder attached or not. Not
// safe for concurrent use — it belongs to the machine's cycle loop.
type Recorder struct {
	obs.Nop

	cfg Config

	// core labels exported records with the owning cluster core's
	// index (0 for scalar machines — see SetCore). Each cluster core
	// records into its own Recorder; the label keeps merged exports
	// attributable.
	core int

	trace   []Entry // bounded full trace, in record order
	dropped int     // entries dropped after trace hit MaxTrace

	ring    []Entry // flight ring, overwrite-oldest
	ringPos int
	ringLen int

	now int64 // current cycle, set by BeginCycle

	// Trigger-window state.
	winMask     int64
	winIndex    int
	winFaults   int
	lastRetired int
	baseSum     int
	baseline    int // mean retired per warm-up window; 0 until set
	triggers    int

	// Open-span state, all fixed size.
	repairStart []int64 // per-slot repair-window open cycle, -1 idle
	specOpen    bool
	specStart   int64
	specName    string
	specConf    int32
	phaseOpen   bool
	phaseStart  int64
	phaseCount  int32
	cacheUsed   bool // a steering cache is attached; emit epochs
	cacheStart  int64
	finished    bool
}

// NewRecorder builds a recorder with all storage preallocated. slots
// is the reconfigurable-fabric slot count (per-slot repair tracking).
func NewRecorder(cfg Config, slots int) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:         cfg,
		trace:       make([]Entry, 0, cfg.MaxTrace),
		ring:        make([]Entry, cfg.FlightSize),
		winMask:     int64(cfg.Window - 1),
		repairStart: make([]int64, slots),
	}
	for i := range r.repairStart {
		r.repairStart[i] = -1
	}
	return r
}

// SetCore sets the cluster-core index stamped onto exported records
// (JSONL rows carry it as "core"; the Chrome trace maps each core to
// its own process). Scalar machines leave it at 0.
func (r *Recorder) SetCore(core int) { r.core = core }

// Core returns the cluster-core label (0 for a nil recorder).
func (r *Recorder) Core() int {
	if r == nil {
		return 0
	}
	return r.core
}

// record appends e to the trace buffer (until full) and the flight
// ring (always). Zero allocations: both stores are preallocated.
func (r *Recorder) record(e Entry) {
	if len(r.trace) < cap(r.trace) {
		r.trace = append(r.trace, e)
	} else {
		r.dropped++
	}
	r.ring[r.ringPos] = e
	r.ringPos++
	if r.ringPos == len(r.ring) {
		r.ringPos = 0
	}
	if r.ringLen < len(r.ring) {
		r.ringLen++
	}
}

// BeginCycle advances the recorder clock and, at window boundaries,
// evaluates the anomaly triggers. cycle is the machine cycle counter
// (1-based), retired the cumulative retired-instruction count.
func (r *Recorder) BeginCycle(cycle, retired int) {
	r.now = int64(cycle)
	if int64(cycle)&r.winMask != 0 {
		return
	}
	winRetired := retired - r.lastRetired
	r.lastRetired = retired
	r.winIndex++
	if r.winFaults > r.cfg.FaultStorm {
		r.trigger(TriggerFaultStorm, int32(r.winFaults), int32(r.cfg.FaultStorm))
	}
	r.winFaults = 0
	switch {
	case r.winIndex == 1:
		// Pipeline ramp; not representative.
	case r.winIndex <= 1+baselineWindows:
		r.baseSum += winRetired
		if r.winIndex == 1+baselineWindows {
			r.baseline = r.baseSum / baselineWindows
		}
	default:
		if r.baseline > 0 && winRetired*100 < r.baseline*r.cfg.IPCCollapsePct {
			r.trigger(TriggerIPCCollapse, int32(winRetired), int32(r.baseline))
		}
	}
}

func (r *Recorder) trigger(reason string, got, threshold int32) {
	r.triggers++
	r.record(Entry{Kind: KindTrigger, Slot: -1, A: got, B: threshold,
		Start: r.now, Name: reason})
	if r.cfg.OnTrigger != nil {
		r.cfg.OnTrigger(r, reason)
	}
}

// ReconfigStart records one reconfiguration bus transaction: a
// complete span on the head slot's lane, since the bus finishes in
// exactly latency cycles.
func (r *Recorder) ReconfigStart(rc obs.Reconfig) {
	r.record(Entry{Kind: KindReconfig, Slot: int16(rc.Head),
		A: int32(rc.Width), B: int32(rc.Latency),
		Start: r.now, Dur: int64(rc.Latency), Name: rc.Unit.String()})
}

// Fault records a fault transition on slot: injections, detections and
// incidental heals (a steering reconfiguration rewrote a corrupt slot
// before the scrubber saw it) are instants, and a repair window spans
// repair start to its completion (repaired, or dead when a permanent
// fault survived the rewrite). Injections feed the fault-storm window
// counter.
func (r *Recorder) Fault(slot int, kind obs.FaultKind) {
	instant := Entry{Kind: KindFault, Slot: int16(slot), Start: r.now}
	switch kind {
	case obs.FaultInjectedTransient, obs.FaultInjectedPermanent:
		r.winFaults++
		instant.Name, instant.Aux = "inject", "transient"
		if kind == obs.FaultInjectedPermanent {
			instant.Aux = "permanent"
		}
		r.record(instant)
	case obs.FaultDetected:
		instant.Name, instant.Aux = "detect", "scrub"
		r.record(instant)
	case obs.FaultHealed:
		instant.Name, instant.Aux = "heal", "load"
		r.record(instant)
	case obs.FaultRepairStart:
		if slot < len(r.repairStart) {
			r.repairStart[slot] = r.now
		}
	case obs.FaultRepaired:
		r.closeRepair(slot, "repaired")
	case obs.FaultDead:
		r.closeRepair(slot, "dead")
	}
}

// closeRepair closes the repair window open on slot, if any.
func (r *Recorder) closeRepair(slot int, outcome string) {
	if slot >= len(r.repairStart) || r.repairStart[slot] < 0 {
		return
	}
	start := r.repairStart[slot]
	r.repairStart[slot] = -1
	r.record(Entry{Kind: KindRepair, Slot: int16(slot),
		Start: start, Dur: r.now - start, Name: "repair", Aux: outcome})
}

// PrefetchOpen opens a prefetch-speculation span predicting p.Config
// with p.ConfidencePct (the predictor resolves a speculation before
// opening the next).
func (r *Recorder) PrefetchOpen(p obs.Prefetch) {
	r.specOpen = true
	r.specStart = r.now
	r.specName = p.Config
	r.specConf = int32(p.ConfidencePct)
}

// PrefetchResolve closes the open speculation span with the given
// outcome and the number of speculative bus transactions issued.
func (r *Recorder) PrefetchResolve(outcome string, p obs.Prefetch) {
	if !r.specOpen {
		return
	}
	r.specOpen = false
	r.record(Entry{Kind: KindSpec, Slot: -1,
		A: int32(p.Spans), B: r.specConf,
		Start: r.specStart, Dur: r.now - r.specStart,
		Name: r.specName, Aux: outcome})
}

// PrefetchPhase closes the current workload-phase span (if one is
// open) and opens the next.
func (r *Recorder) PrefetchPhase() {
	r.closePhase()
	r.phaseOpen = true
	r.phaseStart = r.now
	r.phaseCount++
}

// SteerCacheLookup marks that a steering cache is in use, so the
// trailing cache epoch is emitted at RunEnd even if no flush occurs.
func (r *Recorder) SteerCacheLookup(bool) { r.cacheUsed = true }

// SteerCacheFlush closes the current steering-cache epoch and opens the
// next.
func (r *Recorder) SteerCacheFlush() {
	r.record(Entry{Kind: KindCacheEpoch, Slot: -1,
		Start: r.cacheStart, Dur: r.now - r.cacheStart, Name: "cache-epoch"})
	r.cacheStart = r.now
}

// closePhase closes the open workload-phase span, if any.
func (r *Recorder) closePhase() {
	if r.phaseOpen {
		r.phaseOpen = false
		r.record(Entry{Kind: KindPhase, Slot: -1, A: r.phaseCount,
			Start: r.phaseStart, Dur: r.now - r.phaseStart, Name: "phase"})
	}
}

// RunEnd closes any open epochs at the current cycle: the trailing
// phase, speculation (resolved as "open"), repair windows and cache
// epoch. A second call is a no-op.
func (r *Recorder) RunEnd() {
	if r.finished {
		return
	}
	r.finished = true
	r.closePhase()
	r.PrefetchResolve(OutcomeOpen, obs.Prefetch{})
	for s := range r.repairStart {
		r.closeRepair(s, OutcomeOpen)
	}
	if r.cacheUsed {
		r.SteerCacheFlush()
	}
}

// Entries returns the recorded trace in record order. The slice is
// the recorder's own storage; callers must not mutate it.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	return r.trace
}

// Flight returns a copy of the flight ring, oldest first.
func (r *Recorder) Flight() []Entry {
	out := make([]Entry, 0, r.ringLen)
	start := r.ringPos - r.ringLen
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.ringLen; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Triggers returns how many anomaly triggers have fired.
func (r *Recorder) Triggers() int { return r.triggers }

// Dropped returns how many entries the bounded trace buffer dropped.
func (r *Recorder) Dropped() int { return r.dropped }
