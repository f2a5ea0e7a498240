// Package rfu models the execution fabric of Fig. 1: five fixed
// functional units (one per type) plus eight reconfigurable slots that
// partial reconfiguration rewrites at unit granularity. The fabric tracks,
// per slot, what is configured (the resource allocation vector of §3.2),
// whether the unit headed there is busy executing, and whether the slot is
// mid-reconfiguration; it exposes the per-entry availability signals the
// availability circuit of Fig. 7 consumes and enforces the paper's rule
// that only idle RFUs are ever reconfigured.
package rfu

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

// UnitRef identifies one functional-unit instance: a fixed unit (by type)
// or a reconfigurable unit (by head slot).
type UnitRef struct {
	FFU bool
	Idx int // unit type ordinal for FFUs, head slot index for RFUs
}

// String renders the reference for traces.
func (r UnitRef) String() string {
	if r.FFU {
		return fmt.Sprintf("FFU(%v)", arch.UnitType(r.Idx))
	}
	return fmt.Sprintf("RFU(slot %d)", r.Idx)
}

// Fabric is the execution fabric. The zero value is unusable; use New.
type Fabric struct {
	alloc config.AllocationVector

	// Per reconfigurable slot.
	busy     [arch.NumRFUSlots]int           // cycles of execution left, tracked at head slots
	reconfig [arch.NumRFUSlots]int           // cycles of reconfiguration left
	target   [arch.NumRFUSlots]arch.Encoding // encoding installed when reconfiguration finishes
	// Per fixed unit.
	ffuBusy [arch.NumFFUs]int

	latency     int  // cycles to reconfigure one span
	ffuDisabled bool // X4 ablation: hide the fixed units
	// busWidth caps how many spans may reconfigure concurrently,
	// modelling the configuration bus of Fig. 1 (0 = unlimited).
	busWidth int

	// Statistics.
	reconfigurations int // spans rewritten
	reconfigCycles   int // slot-cycles spent reconfiguring
	busyCycles       int // slot+FFU cycles spent executing

	// Packed hot-path masks, maintained incrementally at the (rare)
	// mutation sites so the per-cycle availability and timer scans walk
	// only live bits instead of every slot: busyMask/reconfigMask carry
	// the slots with running execution/reconfiguration timers,
	// ffuBusyMask the busy fixed units, unitMask the head slots whose
	// encoding names a unit, and healthOKMask the packed healthOK
	// signals. allocVersion counts allocation-vector rewrites so
	// downstream consumers (the steering manager's layout classifier)
	// can memoize derived views.
	busyMask     uint16
	reconfigMask uint16
	ffuBusyMask  uint8
	unitMask     uint16
	healthOKMask uint16
	allocVersion uint64

	// sink observes span rewrites and fault transitions; the
	// configuration policies driving this fabric report through it too.
	sink obs.Sink

	// Fault injection & degraded mode (see health.go). injector is nil
	// unless EnableFaults armed it; healthOK starts all-true so the
	// hot-path masks cost one array load when faults are off.
	injector       *fault.Injector
	health         [arch.NumRFUSlots]SlotHealth
	permanent      [arch.NumRFUSlots]bool // stuck fault underneath the corruption
	healthOK       [arch.NumRFUSlots]bool // span-aware usable mask (derived)
	unavailMask    uint8                  // packed non-healthy slots (incl. external leases)
	deadMask       uint8                  // packed permanently retired slots (incl. external)
	scrubCountdown int
	fstats         FaultStats

	// Cluster hooks (see internal/cluster). External masks overlay
	// slots leased to sibling cores onto the health view; the bus-load
	// and slot-busy callbacks extend the configuration-bus occupancy
	// and span-drain checks across sibling fabrics sharing the physical
	// resources. A mirror fabric reflects a master's configuration
	// (merged-mode gang sharing) while keeping private execution ports.
	// All are zero/nil by default, so a scalar fabric pays nothing.
	extUnavail  uint8
	extDead     uint8
	extBusLoad  func() int
	extSlotBusy func(int) bool
	mirror      bool
}

// New returns an empty fabric (no RFU units configured) whose span
// reconfigurations take latency cycles. A zero latency models free
// reconfiguration; negative latencies panic.
func New(latency int) *Fabric {
	if latency < 0 {
		panic("rfu: negative reconfiguration latency")
	}
	f := &Fabric{alloc: config.NewAllocationVector(), latency: latency}
	for s := range f.healthOK {
		f.healthOK[s] = true
	}
	f.healthOKMask = 1<<arch.NumRFUSlots - 1
	return f
}

// refreshAlloc rebuilds the allocation-derived mask and bumps the
// version counter. Call after any alloc.Slots mutation.
func (f *Fabric) refreshAlloc() {
	var m uint16
	for s := 0; s < arch.NumRFUSlots; s++ {
		if _, ok := arch.DecodeUnit(f.alloc.Slots[s]); ok {
			m |= 1 << uint(s)
		}
	}
	f.unitMask = m
	f.allocVersion++
}

// AllocVersion returns a counter that changes whenever the allocation
// vector does — the memoization key for derived views of the layout.
func (f *Fabric) AllocVersion() uint64 { return f.allocVersion }

// ReconfigLatency returns the per-span reconfiguration latency.
func (f *Fabric) ReconfigLatency() int { return f.latency }

// Allocation returns the current resource allocation vector.
func (f *Fabric) Allocation() config.AllocationVector { return f.alloc }

// TotalCounts returns the unit mix of the whole processor (RFUs + FFUs).
func (f *Fabric) TotalCounts() arch.Counts { return f.alloc.TotalCounts() }

// headOf returns the head slot of the unit covering slot i, or -1 when
// the slot is empty or mid-reconfiguration.
func (f *Fabric) headOf(i int) int {
	for s := i; s >= 0; s-- {
		switch e := f.alloc.Slots[s]; {
		case e == arch.EncCont:
			continue
		case e == arch.EncEmpty:
			return -1
		default:
			// A head covers slot i only if its span reaches it.
			if t, ok := arch.DecodeUnit(e); ok && s+arch.SlotCost(t) > i {
				return s
			}
			return -1
		}
	}
	return -1
}

// AvailabilitySignals returns the per-entry availability lines in
// allocation-vector order (slots then FFUs): a head slot is available
// when its unit is configured, idle and not reconfiguring; continuation
// and empty slots are never available (their encodings never match in
// Eq. 1 anyway); a fixed unit is available when idle.
func (f *Fabric) AvailabilitySignals() []bool {
	out := make([]bool, arch.NumRFUSlots+arch.NumFFUs)
	for i := 0; i < arch.NumRFUSlots; i++ {
		_, isUnit := arch.DecodeUnit(f.alloc.Slots[i])
		out[i] = isUnit && f.busy[i] == 0 && f.reconfig[i] == 0 && f.healthOK[i]
	}
	for i := 0; i < arch.NumFFUs; i++ {
		out[arch.NumRFUSlots+i] = f.ffuBusy[i] == 0 && !f.ffuDisabled
	}
	return out
}

// SetConfigBusWidth caps concurrent span reconfigurations, modelling the
// configuration bus of Fig. 1: width 1 serialises all configuration
// loading through one bus; 0 (the default) is unlimited.
func (f *Fabric) SetConfigBusWidth(w int) {
	if w < 0 {
		panic("rfu: negative config bus width")
	}
	f.busWidth = w
}

// activeSpans counts spans currently occupying the configuration bus:
// steering rewrites (the reconfiguring slots whose pending target is a
// unit encoding) and fault repairs, which rewrite one slot each and
// compete for the same bus.
func (f *Fabric) activeSpans() int {
	n := 0
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.reconfig[s] > 0 && (f.target[s] != arch.EncCont || f.health[s] == HealthRepairing) {
			n++
		}
	}
	return n
}

// ActiveSpans exposes the configuration-bus occupancy — the cluster
// layer sums it across sibling fabrics to enforce one shared bus.
func (f *Fabric) ActiveSpans() int { return f.activeSpans() }

// busLoad is the bus occupancy this fabric must respect: its own active
// spans plus whatever a cluster-installed hook reports for siblings
// sharing the physical configuration bus.
func (f *Fabric) busLoad() int {
	n := f.activeSpans()
	if f.extBusLoad != nil {
		n += f.extBusLoad()
	}
	return n
}

// SetExternalBusLoad installs a hook reporting configuration-bus
// occupancy by sibling fabrics; it is added to this fabric's own active
// spans in every bus-capacity check. nil (the default) disables it.
func (f *Fabric) SetExternalBusLoad(fn func() int) { f.extBusLoad = fn }

// SetExternalSlotBusy installs a hook reporting whether a sibling core
// is executing on slot s of the shared fabric. Reconfiguration, repair
// and salvage treat a sibling-busy slot like a locally busy one: its
// frames are not rewritten until the work drains. nil disables it.
func (f *Fabric) SetExternalSlotBusy(fn func(int) bool) { f.extSlotBusy = fn }

// SpanBusy reports whether the unit covering slot s is executing. Busy
// is tracked at head slots, so continuations resolve to their head.
// Cluster siblings consult this before rewriting shared slots.
func (f *Fabric) SpanBusy(s int) bool {
	if f.busy[s] > 0 {
		return true
	}
	head := f.headOf(s)
	return head >= 0 && f.busy[head] > 0
}

// SetMirror marks the fabric as a configuration mirror: Tick still
// advances its private execution (RFU busy, FFU) timers, but the
// reconfiguration countdowns and the fault machinery belong to the
// master fabric it reflects (see MirrorFrom). Merged-mode cluster
// cores run on mirrors of core 0's fabric.
func (f *Fabric) SetMirror(on bool) { f.mirror = on }

// MirrorFrom copies the master fabric's configuration state — the
// allocation vector and in-flight reconfiguration timers — into this
// mirror, so a gang-shared core sees the master's layout while keeping
// its own execution ports. Call once per cycle after the master ticks.
func (f *Fabric) MirrorFrom(src *Fabric) {
	if f.alloc.Slots != src.alloc.Slots {
		f.alloc.Slots = src.alloc.Slots
		f.refreshAlloc()
		if f.injector != nil || f.extUnavail != 0 {
			f.recomputeHealthOK()
		}
	}
	f.reconfig = src.reconfig
	f.target = src.target
	f.reconfigMask = src.reconfigMask
}

// SetFFUsEnabled hides or restores the fixed functional units — the X4
// ablation studying the paper's claim that FFUs guarantee forward
// progress. With FFUs disabled only configured RFUs execute instructions.
func (f *Fabric) SetFFUsEnabled(enabled bool) { f.ffuDisabled = !enabled }

// FFUsEnabled reports whether the fixed units are visible.
func (f *Fabric) FFUsEnabled() bool { return !f.ffuDisabled }

// Install loads a full configuration immediately, bypassing the
// reconfiguration latency — used to preset static-baseline machines
// before time starts. The fabric must be completely idle.
func (f *Fabric) Install(cfg config.Configuration) {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("rfu: install of invalid configuration: %v", err))
	}
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.busy[s] > 0 || f.reconfig[s] > 0 {
			panic("rfu: install on a non-idle fabric")
		}
	}
	f.alloc.Slots = cfg.Layout
	f.refreshAlloc()
	if f.injector != nil || f.extUnavail != 0 {
		f.recomputeHealthOK()
	}
}

// Available reports whether a unit of type t can accept work this cycle
// (Eq. 1 over the live allocation vector and availability signals). This
// is an allocation-free fast path; TestFabricAvailabilityMatchesEquation1
// proves it equivalent to the reference avail.Available over the built
// vectors.
func (f *Fabric) Available(t arch.UnitType) bool {
	want := arch.Encode(t)
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.alloc.Slots[s] == want && f.busy[s] == 0 && f.reconfig[s] == 0 && f.healthOK[s] {
			return true
		}
	}
	return f.ffuBusy[t] == 0 && !f.ffuDisabled
}

// AvailableCount returns how many units of type t can accept work this
// cycle.
func (f *Fabric) AvailableCount(t arch.UnitType) int {
	want := arch.Encode(t)
	n := 0
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.alloc.Slots[s] == want && f.busy[s] == 0 && f.reconfig[s] == 0 && f.healthOK[s] {
			n++
		}
	}
	if f.ffuBusy[t] == 0 && !f.ffuDisabled {
		n++
	}
	return n
}

// AvailableSet returns the per-type availability lines packed into a
// bitset (bit t set when a unit of type t can accept work this cycle).
// It walks only the configured unit heads that survive the busy,
// reconfiguring and health masks, so the per-cycle cost scales with
// live units rather than fabric size.
func (f *Fabric) AvailableSet() uint8 {
	var out uint8
	for m := f.unitMask &^ f.busyMask &^ f.reconfigMask & f.healthOKMask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros16(m)
		t, _ := arch.DecodeUnit(f.alloc.Slots[s])
		out |= 1 << uint(t)
	}
	if !f.ffuDisabled {
		out |= ^f.ffuBusyMask & (1<<arch.NumFFUs - 1)
	}
	return out
}

// AllAvailable returns the per-type availability lines the wake-up array
// consumes, without allocating.
func (f *Fabric) AllAvailable() [arch.NumUnitTypes]bool {
	var out [arch.NumUnitTypes]bool
	for m := f.AvailableSet(); m != 0; m &= m - 1 {
		out[bits.TrailingZeros8(m)] = true
	}
	return out
}

// Acquire claims an idle unit of type t for busyCycles cycles of
// execution, preferring a fixed unit so the reconfigurable fabric stays
// eligible for steering. It returns ok=false when no unit of the type is
// available.
func (f *Fabric) Acquire(t arch.UnitType, busyCycles int) (UnitRef, bool) {
	if busyCycles < 1 {
		panic("rfu: acquire with non-positive busy time")
	}
	if f.ffuBusy[t] == 0 && !f.ffuDisabled {
		f.ffuBusy[t] = busyCycles
		f.ffuBusyMask |= 1 << uint(t)
		return UnitRef{FFU: true, Idx: int(t)}, true
	}
	want := arch.Encode(t)
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.alloc.Slots[s] == want && f.busy[s] == 0 && f.reconfig[s] == 0 && f.healthOK[s] {
			f.busy[s] = busyCycles
			f.busyMask |= 1 << uint(s)
			return UnitRef{Idx: s}, true
		}
	}
	return UnitRef{}, false
}

// ExtendBusy lengthens a claimed unit's remaining execution time — used
// when an instruction's latency grows in flight (e.g. a cache miss).
func (f *Fabric) ExtendBusy(r UnitRef, extra int) {
	if extra < 0 {
		panic("rfu: negative busy extension")
	}
	if r.FFU {
		if f.ffuBusy[r.Idx] == 0 {
			panic(fmt.Sprintf("rfu: ExtendBusy of idle %v", r))
		}
		f.ffuBusy[r.Idx] += extra
		return
	}
	if f.busy[r.Idx] == 0 {
		panic(fmt.Sprintf("rfu: ExtendBusy of idle %v", r))
	}
	f.busy[r.Idx] += extra
}

// Busy reports whether the referenced unit is still executing.
func (f *Fabric) Busy(r UnitRef) bool {
	if r.FFU {
		return f.ffuBusy[r.Idx] > 0
	}
	return f.busy[r.Idx] > 0
}

// SlotBusy reports whether RFU slot s is executing. Busy is tracked at
// unit head slots, so continuation slots of a busy unit report false.
func (f *Fabric) SlotBusy(s int) bool { return f.busy[s] > 0 }

// spanOf returns the slot span [start, start+n) a unit of type t would
// occupy at head slot start.
func spanOf(t arch.UnitType, start int) (int, int) {
	return start, start + arch.SlotCost(t)
}

// CanReconfigure reports whether the span a unit of type t would occupy
// at head slot start is reconfigurable right now: the span lies in the
// fabric and every slot it touches — including all slots of any existing
// unit overlapping the span — is idle and not already reconfiguring.
// This is the paper's "only reconfigure RFUs that are not busy" rule at
// span granularity.
func (f *Fabric) CanReconfigure(t arch.UnitType, start int) bool {
	lo, hi := spanOf(t, start)
	if lo < 0 || hi > arch.NumRFUSlots {
		return false
	}
	if f.busWidth > 0 && f.latency > 0 && f.busLoad() >= f.busWidth {
		return false // configuration bus fully occupied
	}
	for s := lo; s < hi; s++ {
		if f.reconfig[s] > 0 {
			return false
		}
		// Slots leased to a sibling core are that core's property; this
		// core's steering never rewrites them.
		if f.extUnavail&(1<<uint(s)) != 0 {
			return false
		}
		// Slots the controller knows are bad — flagged by the scrub,
		// mid-repair, or permanently dead — are off limits to steering;
		// the repair path owns them. Undetected corruption does not
		// block a rewrite (the controller cannot see it), and the
		// rewrite incidentally heals transient upsets.
		if h := f.health[s]; h == HealthDetected || h == HealthRepairing || h == HealthDead {
			return false
		}
		// A sibling core executing on the slot holds it like local busy
		// execution does: the span drains before any rewrite.
		if f.extSlotBusy != nil && f.extSlotBusy(s) {
			return false
		}
		head := f.headOf(s)
		if head < 0 {
			continue
		}
		// The whole overlapped unit must be idle, and destroying it
		// must not leave a busy remnant — spans are destroyed whole.
		if f.busy[head] > 0 {
			return false
		}
		// Nor may destruction strand an in-flight repair on one of the
		// unit's slots outside the new span: that repair would later
		// re-install its golden-copy continuation encoding into the
		// blanked region, orphaning it. Wait for the unit's bus
		// transactions to drain first.
		ht, _ := arch.DecodeUnit(f.alloc.Slots[head])
		hlo, hhi := spanOf(ht, head)
		for k := hlo; k < hhi; k++ {
			if f.reconfig[k] > 0 {
				return false
			}
		}
	}
	return true
}

// Reconfigure begins rewriting the span at head slot start to hold a unit
// of type t. Any existing unit overlapping the span is removed whole (its
// slots outside the new span become empty). The new unit becomes
// available after the fabric's reconfiguration latency; with a zero
// latency it is available immediately. Callers must check CanReconfigure
// first; violations panic.
//
// Reconfigure is idempotent in effect: if the span already holds exactly
// a unit of type t, it reports false and does nothing ("the RFU will not
// be reconfigured if it already implements the specified functional
// unit", §3.2).
func (f *Fabric) Reconfigure(t arch.UnitType, start int) bool {
	if !f.CanReconfigure(t, start) {
		panic(fmt.Sprintf("rfu: illegal reconfiguration of %v at slot %d", t, start))
	}
	lo, hi := spanOf(t, start)
	if f.alloc.Slots[lo] == arch.Encode(t) {
		return false // already implements the unit
	}
	// Remove overlapped units whole.
	for s := lo; s < hi; s++ {
		head := f.headOf(s)
		if head < 0 {
			continue
		}
		ht, _ := arch.DecodeUnit(f.alloc.Slots[head])
		hlo, hhi := spanOf(ht, head)
		for k := hlo; k < hhi; k++ {
			f.alloc.Slots[k] = arch.EncEmpty
		}
	}
	// Install the new span.
	for s := lo; s < hi; s++ {
		f.alloc.Slots[s] = arch.EncEmpty
		f.reconfig[s] = f.latency
		f.target[s] = arch.EncCont
	}
	if f.latency > 0 {
		f.reconfigMask |= (1<<uint(hi-lo) - 1) << uint(lo)
	}
	f.target[lo] = arch.Encode(t)
	f.reconfigurations++
	f.reconfigCycles += (hi - lo) * f.latency
	if f.latency == 0 {
		for s := lo; s < hi; s++ {
			f.alloc.Slots[s] = f.target[s]
		}
	}
	if f.sink != nil {
		f.sink.ReconfigStart(obs.Reconfig{Unit: t, Head: lo, Width: hi - lo, Latency: f.latency, Slots: f.alloc.Slots})
	}
	if f.latency == 0 && f.injector != nil {
		for s := lo; s < hi; s++ {
			f.installHealth(s)
		}
	}
	f.refreshAlloc()
	if f.injector != nil || f.extUnavail != 0 {
		f.recomputeHealthOK()
	}
	return true
}

// Tick advances one cycle: execution busy timers and reconfiguration
// timers count down, spans whose reconfiguration completes install
// their new encodings, and — when a fault injector is armed — the fault
// state machine runs (scrub, repair, salvage, new upsets). The timer
// scans walk the packed masks, so an idle fabric ticks in a few branches.
func (f *Fabric) Tick() {
	for m := f.busyMask; m != 0; m &= m - 1 {
		s := bits.TrailingZeros16(m)
		f.busy[s]--
		f.busyCycles++
		if f.busy[s] == 0 {
			f.busyMask &^= 1 << uint(s)
		}
	}
	if !f.mirror {
		installed := false
		allocChanged := false
		for m := f.reconfigMask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros16(m)
			f.reconfig[s]--
			if f.reconfig[s] == 0 {
				f.reconfigMask &^= 1 << uint(s)
				f.alloc.Slots[s] = f.target[s]
				allocChanged = true
				if f.injector != nil {
					f.installHealth(s)
					installed = true
				}
			}
		}
		if allocChanged {
			f.refreshAlloc()
		}
		if installed || (allocChanged && f.extUnavail != 0) {
			f.recomputeHealthOK()
		}
	}
	for m := f.ffuBusyMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		f.ffuBusy[i]--
		f.busyCycles++
		if f.ffuBusy[i] == 0 {
			f.ffuBusyMask &^= 1 << uint(i)
		}
	}
	if !f.mirror && f.injector != nil {
		f.faultTick()
	}
}

// Idle reports whether the whole reconfigurable fabric is quiescent: no
// slot executing and none reconfiguring. The fixed units do not count —
// they are never reconfigured.
func (f *Fabric) Idle() bool {
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.busy[s] > 0 || f.reconfig[s] > 0 {
			return false
		}
	}
	return true
}

// Reconfiguring reports whether any slot is mid-reconfiguration.
func (f *Fabric) Reconfiguring() bool {
	for _, r := range f.reconfig {
		if r > 0 {
			return true
		}
	}
	return false
}

// SetSink installs the observer of span rewrites and fault transitions
// (nil detaches it). The processor owning the fabric installs its sink
// here, so the configuration policies find it through Sink.
func (f *Fabric) SetSink(s obs.Sink) { f.sink = s }

// Sink returns the installed observer, or nil.
func (f *Fabric) Sink() obs.Sink { return f.sink }

// ReconfiguringSlots counts slots currently mid-reconfiguration — the
// sampler's in-flight reconfiguration gauge.
func (f *Fabric) ReconfiguringSlots() int {
	n := 0
	for _, r := range f.reconfig {
		if r > 0 {
			n++
		}
	}
	return n
}

// UnitStates summarises the fabric for the sampler: per-type counts of
// busy RFU heads, configured RFU heads, and busy FFUs.
func (f *Fabric) UnitStates() (rfuBusy, rfuUnits, ffuBusy arch.Counts) {
	for s := 0; s < arch.NumRFUSlots; s++ {
		if t, ok := arch.DecodeUnit(f.alloc.Slots[s]); ok {
			rfuUnits[t]++
			if f.busy[s] > 0 {
				rfuBusy[t]++
			}
		}
	}
	for t := 0; t < arch.NumFFUs; t++ {
		if f.ffuBusy[t] > 0 {
			ffuBusy[t]++
		}
	}
	return
}

// Statistics accessors.

// Reconfigurations returns the number of span rewrites started.
func (f *Fabric) Reconfigurations() int { return f.reconfigurations }

// ReconfigurationCycles returns total slot-cycles spent reconfiguring.
func (f *Fabric) ReconfigurationCycles() int { return f.reconfigCycles }

// BusyCycles returns total unit-cycles spent executing.
func (f *Fabric) BusyCycles() int { return f.busyCycles }
