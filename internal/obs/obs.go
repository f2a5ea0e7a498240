// Package obs declares the one observer interface the simulator reports
// to. A processor holds a single Sink and hands it to its fabric; the
// configuration policies read it through the fabric they already hold,
// so one attach reaches every hook site. Telemetry (internal/telemetry),
// span recording (internal/span) and the pipeline trace (internal/trace)
// are consumers: each implements Sink and keeps its own exporter.
//
// Every hook site is one `if sink != nil` branch, so a machine with no
// observer pays one predictable branch per event. Consumers are pure
// observers: a run is bit-identical with any sink attached or none.
package obs

import (
	"repro/internal/arch"
	"repro/internal/isa"
)

// Sink receives the machine's events, in the order they happen within
// a cycle. Methods must not mutate simulator state.
type Sink interface {
	// BeginCycle opens simulated cycle (1-based); retired is the
	// cumulative retired-instruction count at that point.
	BeginCycle(cycle, retired int)
	// EndCycle closes the cycle — the sampling boundary. Consumers
	// that sample read src.Snapshot() when their interval is due, so
	// off-boundary cycles never pay the snapshot cost.
	EndCycle(src Source)
	// RunEnd reports that the program's HALT retired.
	RunEnd()

	// Dispatch reports instruction seq entering the window this cycle;
	// it left the front end in fetchCycle.
	Dispatch(seq uint64, pc uint32, in isa.Inst, fetchCycle int)
	// DispatchStall reports a dispatch attempt blocked by a full window.
	DispatchStall()
	// Issue reports instruction seq granted a unit and executed; latency
	// includes any cache-miss extension.
	Issue(seq uint64, pc uint32, in isa.Inst, latency int)
	// Retire reports instruction seq committing.
	Retire(seq uint64, pc uint32)
	// Squash reports instruction seq flushed by misprediction recovery.
	Squash(seq uint64, pc uint32, in isa.Inst)

	// Selection reports one selection-unit pass: the four CEM scores
	// and the winning candidate.
	Selection(errors [arch.NumConfigs]int, choice int)
	// SteerCacheLookup reports one steering-cache probe: a hit replays
	// a memoized selection, a miss runs the CEM generators.
	SteerCacheLookup(hit bool)
	// SteerCacheFlush reports the steering cache being flushed in place.
	SteerCacheFlush()
	// ConfigSwitch reports a configuration switch the loader started.
	ConfigSwitch(d Decision)

	// ReconfigStart reports one span rewrite beginning.
	ReconfigStart(r Reconfig)
	// Fault reports one fault-state transition on slot.
	Fault(slot int, kind FaultKind)
	// ScrubScan reports one readback scrub pass over the fabric.
	ScrubScan()
	// MaskedSlotCycles reports n slot-cycles lost to fault masking this
	// cycle (at most once per cycle, only when n > 0).
	MaskedSlotCycles(n int)

	// PrefetchPhase reports a detected workload phase boundary.
	PrefetchPhase()
	// PrefetchOpen reports a speculation opening toward p.Config.
	PrefetchOpen(p Prefetch)
	// PrefetchIssue reports p.Spans speculative span rewrites started
	// this cycle.
	PrefetchIssue(p Prefetch)
	// PrefetchResolve reports the open speculation ending with outcome
	// (OutcomeConfirm, OutcomeMispredict or OutcomeCancel); p.Spans is
	// the speculation's total span rewrites.
	PrefetchResolve(outcome string, p Prefetch)
}

// Source is the machine a consumer samples at EndCycle.
type Source interface {
	Snapshot() State
}

// State is the machine snapshot a Source hands a sampling consumer —
// the fields it cannot see through the event hooks.
type State struct {
	Cycle     int
	Retired   int
	Occupancy int
	Demand    arch.Counts
	RFUUnits  arch.Counts
	RFUBusy   arch.Counts
	FFUBusy   arch.Counts
	Slots     [arch.NumRFUSlots]arch.Encoding

	ReconfigSlots int
	// MaskedSlots counts slots fault-masked away from steering and
	// dispatch right now.
	MaskedSlots int

	// Cumulative bottleneck buckets (issued, units, deps, frontend).
	Buckets [4]int
}

// Decision describes one configuration switch the loader started
// (selection alone, with nothing loadable, is not a decision). The JSON
// tags are the telemetry decision record's schema.
type Decision struct {
	// From classifies the allocation before the switch: a basis
	// configuration name, "(empty)", or "hybrid".
	From string `json:"from"`
	// To is the selected target configuration's name.
	To string `json:"to"`
	// Choice is the selection unit's two-bit output (1..3).
	Choice int `json:"choice"`
	// DiffSlots is the XOR-diff between the live allocation vector and
	// the target layout: how many slot encodings differ at switch time.
	DiffSlots int `json:"diffSlots"`
	// Spans and SlotsLoading count the span rewrites started now and the
	// slots they cover; DeferredSlots the busy slots §3.2 skipped.
	Spans         int `json:"spans"`
	SlotsLoading  int `json:"slotsLoading"`
	DeferredSlots int `json:"deferredSlots"`
	// StallSlotCycles is the loading overhead started by this switch:
	// slots being rewritten times the per-span reconfiguration latency —
	// the slot-cycles during which those slots cannot execute.
	StallSlotCycles int `json:"stallSlotCycles"`
}

// Reconfig describes one span rewrite: a unit of type Unit installed at
// head slot Head, covering Width slots, over a bus transaction of
// Latency cycles.
type Reconfig struct {
	Unit    arch.UnitType
	Head    int
	Width   int
	Latency int
	// Slots is the allocation vector once the rewrite is under way.
	Slots [arch.NumRFUSlots]arch.Encoding
}

// FaultKind names a fault-state transition.
type FaultKind uint8

const (
	// FaultInjectedTransient and FaultInjectedPermanent: an upset
	// struck a healthy slot.
	FaultInjectedTransient FaultKind = iota
	FaultInjectedPermanent
	// FaultDetected: the readback scrub found a corrupt slot.
	FaultDetected
	// FaultRepairStart: a repair rewrite of the slot began.
	FaultRepairStart
	// FaultRepaired: a repair rewrite restored the slot.
	FaultRepaired
	// FaultHealed: a steering load rewrote a transiently corrupt slot
	// before repair reached it.
	FaultHealed
	// FaultDead: a repair found stuck bits and retired the slot.
	FaultDead
)

// Prefetch describes one speculative-prefetch event.
type Prefetch struct {
	// Config names the predicted target configuration.
	Config string `json:"config"`
	// Spans counts the speculative span rewrites the event covers.
	Spans int `json:"spans"`
	// ConfidencePct is the Markov-predictor confidence behind the
	// speculation, in percent.
	ConfidencePct int `json:"confidencePct"`
}

// Speculation outcomes, the closed vocabulary of PrefetchResolve.
const (
	OutcomeConfirm    = "confirm"
	OutcomeMispredict = "mispredict"
	OutcomeCancel     = "cancel"
)

// Join returns a sink delivering every event to a and then b. A nil
// argument yields the other unchanged, so attaching to a machine with no
// observer costs no fan-out.
func Join(a, b Sink) Sink {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return Fanout{a, b}
}

// Fanout delivers every event to each sink in order.
type Fanout []Sink

func (f Fanout) each(fn func(Sink)) {
	for _, s := range f {
		fn(s)
	}
}

func (f Fanout) BeginCycle(cycle, retired int) { f.each(func(s Sink) { s.BeginCycle(cycle, retired) }) }
func (f Fanout) EndCycle(src Source)           { f.each(func(s Sink) { s.EndCycle(src) }) }
func (f Fanout) RunEnd()                       { f.each(func(s Sink) { s.RunEnd() }) }
func (f Fanout) Dispatch(seq uint64, pc uint32, in isa.Inst, fetchCycle int) {
	f.each(func(s Sink) { s.Dispatch(seq, pc, in, fetchCycle) })
}
func (f Fanout) DispatchStall() { f.each(func(s Sink) { s.DispatchStall() }) }
func (f Fanout) Issue(seq uint64, pc uint32, in isa.Inst, latency int) {
	f.each(func(s Sink) { s.Issue(seq, pc, in, latency) })
}
func (f Fanout) Retire(seq uint64, pc uint32) { f.each(func(s Sink) { s.Retire(seq, pc) }) }
func (f Fanout) Squash(seq uint64, pc uint32, in isa.Inst) {
	f.each(func(s Sink) { s.Squash(seq, pc, in) })
}
func (f Fanout) Selection(errors [arch.NumConfigs]int, choice int) {
	f.each(func(s Sink) { s.Selection(errors, choice) })
}
func (f Fanout) SteerCacheLookup(hit bool)      { f.each(func(s Sink) { s.SteerCacheLookup(hit) }) }
func (f Fanout) SteerCacheFlush()               { f.each(func(s Sink) { s.SteerCacheFlush() }) }
func (f Fanout) ConfigSwitch(d Decision)        { f.each(func(s Sink) { s.ConfigSwitch(d) }) }
func (f Fanout) ReconfigStart(r Reconfig)       { f.each(func(s Sink) { s.ReconfigStart(r) }) }
func (f Fanout) Fault(slot int, kind FaultKind) { f.each(func(s Sink) { s.Fault(slot, kind) }) }
func (f Fanout) ScrubScan()                     { f.each(func(s Sink) { s.ScrubScan() }) }
func (f Fanout) MaskedSlotCycles(n int)         { f.each(func(s Sink) { s.MaskedSlotCycles(n) }) }
func (f Fanout) PrefetchPhase()                 { f.each(func(s Sink) { s.PrefetchPhase() }) }
func (f Fanout) PrefetchOpen(p Prefetch)        { f.each(func(s Sink) { s.PrefetchOpen(p) }) }
func (f Fanout) PrefetchIssue(p Prefetch)       { f.each(func(s Sink) { s.PrefetchIssue(p) }) }
func (f Fanout) PrefetchResolve(outcome string, p Prefetch) {
	f.each(func(s Sink) { s.PrefetchResolve(outcome, p) })
}

// Nop ignores every event. Consumers embed it and override only the
// events they record.
type Nop struct{}

func (Nop) BeginCycle(int, int)                    {}
func (Nop) EndCycle(Source)                        {}
func (Nop) RunEnd()                                {}
func (Nop) Dispatch(uint64, uint32, isa.Inst, int) {}
func (Nop) DispatchStall()                         {}
func (Nop) Issue(uint64, uint32, isa.Inst, int)    {}
func (Nop) Retire(uint64, uint32)                  {}
func (Nop) Squash(uint64, uint32, isa.Inst)        {}
func (Nop) Selection([arch.NumConfigs]int, int)    {}
func (Nop) SteerCacheLookup(bool)                  {}
func (Nop) SteerCacheFlush()                       {}
func (Nop) ConfigSwitch(Decision)                  {}
func (Nop) ReconfigStart(Reconfig)                 {}
func (Nop) Fault(int, FaultKind)                   {}
func (Nop) ScrubScan()                             {}
func (Nop) MaskedSlotCycles(int)                   {}
func (Nop) PrefetchPhase()                         {}
func (Nop) PrefetchOpen(Prefetch)                  {}
func (Nop) PrefetchIssue(Prefetch)                 {}
func (Nop) PrefetchResolve(string, Prefetch)       {}
