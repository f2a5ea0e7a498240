// Fault injection and degraded-mode operation for the fabric: per-slot
// configuration-memory health, periodic readback scrubbing, and
// repair-by-partial-reconfiguration that shares the configuration bus
// with steering-driven loads.
//
// The model keeps the allocation vector as the controller's golden copy
// of what each slot should hold; an upset corrupts the slot's physical
// frames without losing that copy, so repair is a rewrite of the same
// encoding. A corrupted slot stops matching the availability
// comparators of Eq. 1 (its encoding bits are garbage), which is why a
// faulty unit silently disappears from steering and dispatch rather
// than computing wrong results — and why the whole covering unit is
// masked: any slot of a multi-slot unit carries part of its datapath.
package rfu

import (
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

// SlotHealth is one slot's position in the fault state machine:
//
//	healthy → corrupt → detected → repairing → healthy
//	                                         ↘ dead (permanent fault)
//
// A steering reconfiguration that rewrites a corrupt slot's frames also
// returns it to healthy (the new configuration data overwrites the
// upset), unless the fault is permanent.
type SlotHealth uint8

const (
	// HealthHealthy: the slot's configuration frames are intact.
	HealthHealthy SlotHealth = iota
	// HealthCorrupt: an upset flipped the slot's frames; the scrub
	// scan has not noticed yet. The covering unit is already unusable.
	HealthCorrupt
	// HealthDetected: the readback scrub found the corruption; the
	// slot awaits a repair rewrite.
	HealthDetected
	// HealthRepairing: a repair reconfiguration is rewriting the
	// slot's frames (it occupies the configuration bus like any span).
	HealthRepairing
	// HealthDead: the slot is permanently stuck; repair failed and the
	// slot is retired from the fabric for the rest of the run.
	HealthDead
)

// String names the state for reports and tests.
func (h SlotHealth) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthCorrupt:
		return "corrupt"
	case HealthDetected:
		return "detected"
	case HealthRepairing:
		return "repairing"
	case HealthDead:
		return "dead"
	default:
		return "unknown"
	}
}

// FaultStats counts the fault subsystem's activity over a run.
type FaultStats struct {
	// InjectedTransient / InjectedPermanent count upsets that struck
	// an eligible (healthy, not mid-rewrite) slot.
	InjectedTransient int `json:"injectedTransient"`
	InjectedPermanent int `json:"injectedPermanent"`
	// Detected counts corrupt slots the scrub scan flagged.
	Detected int `json:"detected"`
	// RepairsStarted counts repair rewrites begun; Repaired the slots
	// restored to healthy by a repair completing.
	RepairsStarted int `json:"repairsStarted"`
	Repaired       int `json:"repaired"`
	// HealedByLoad counts corrupt slots healed as a side effect of a
	// steering reconfiguration rewriting their frames.
	HealedByLoad int `json:"healedByLoad"`
	// DeadSlots counts slots retired after a repair found stuck bits.
	DeadSlots int `json:"deadSlots"`
	// ScrubScans counts readback passes over the fabric.
	ScrubScans int `json:"scrubScans"`
	// MaskedSlotCycles accumulates, per cycle, the number of slots
	// hidden from steering and dispatch by a non-healthy state.
	MaskedSlotCycles int `json:"maskedSlotCycles"`
}

// EnableFaults arms the fabric's fault injector with the plan. Invalid
// plans panic (validate request-supplied plans with fault.Plan.Validate
// first). Call before simulation starts. Arming with a zero-rate plan
// draws no random upsets but still runs the scrub/repair machinery,
// which suits directed InjectFault campaigns.
func (f *Fabric) EnableFaults(p fault.Plan) {
	f.injector = fault.NewInjector(p)
	f.scrubCountdown = f.injector.ScrubInterval()
	f.recomputeHealthOK()
}

// FaultsEnabled reports whether a fault injector is armed.
func (f *Fabric) FaultsEnabled() bool { return f.injector != nil }

// InjectFault strikes slot s with a directed upset — the deterministic
// complement to random injection, for directed fault campaigns and
// tests. It reports whether the upset took: slots that are already
// faulted or whose frames are mid-rewrite are immune, like random
// upsets. Arming happens implicitly (with a draw-nothing plan) so the
// scrub/repair machinery runs even without random injection.
func (f *Fabric) InjectFault(s int, permanent bool) bool {
	if f.injector == nil {
		f.injector = fault.NewInjector(fault.Plan{})
		f.scrubCountdown = f.injector.ScrubInterval()
	}
	if f.health[s] != HealthHealthy || f.reconfig[s] > 0 {
		return false
	}
	f.health[s] = HealthCorrupt
	f.inject(s, permanent)
	f.recomputeHealthOK()
	return true
}

// inject records an upset striking slot s, already marked corrupt.
func (f *Fabric) inject(s int, permanent bool) {
	if permanent {
		f.permanent[s] = true
		f.fstats.InjectedPermanent++
		f.fault(s, obs.FaultInjectedPermanent)
	} else {
		f.fstats.InjectedTransient++
		f.fault(s, obs.FaultInjectedTransient)
	}
}

// fault reports a fault transition on slot s to the observer, if any.
func (f *Fabric) fault(s int, kind obs.FaultKind) {
	if f.sink != nil {
		f.sink.Fault(s, kind)
	}
}

// Health returns slot s's fault state.
func (f *Fabric) Health(s int) SlotHealth { return f.health[s] }

// SlotUsable reports whether slot s may serve work as (part of) a unit:
// every slot of the covering unit's span is healthy. Without faults it
// is always true.
func (f *Fabric) SlotUsable(s int) bool { return f.healthOK[s] }

// HealthMasks returns the packed per-slot fault masks: unavail has a
// bit set for every slot in a non-healthy state, dead for every
// permanently retired slot. Slots leased to sibling cores (see
// SetExternalMasks) are folded in, so steering caches keying on both
// stay pure functions of (demand, allocation, masks) in a cluster too.
func (f *Fabric) HealthMasks() (unavail, dead uint8) { return f.unavailMask, f.deadMask }

// SetExternalMasks overlays slots owned elsewhere onto this fabric's
// health view: an unavail bit hides the slot (and any unit crossing
// it) from steering, dispatch and this core's fault injector, exactly
// like a detected fault; a dead bit additionally tells the steering
// manager the capacity is never coming back, like a retired slot. The
// cluster layer leases slots between cores with these masks, reusing
// the degraded-mode machinery end to end. Zero masks restore the
// scalar view. No-op when nothing changed, so per-cycle refreshes on a
// quiet cluster cost two compares.
func (f *Fabric) SetExternalMasks(unavail, dead uint8) {
	if f.extUnavail == unavail && f.extDead == dead {
		return
	}
	f.extUnavail, f.extDead = unavail, dead
	f.recomputeHealthOK()
}

// ExternalMasks returns the external lease overlay last installed.
func (f *Fabric) ExternalMasks() (unavail, dead uint8) { return f.extUnavail, f.extDead }

// MaskedSlots counts slots currently hidden from steering and dispatch
// by a non-healthy state.
func (f *Fabric) MaskedSlots() int {
	n := 0
	for _, h := range f.health {
		if h != HealthHealthy {
			n++
		}
	}
	return n
}

// FaultStats returns a copy of the fault subsystem's counters.
func (f *Fabric) FaultStats() FaultStats { return f.fstats }

// EffectiveTotalCounts returns the unit mix actually able to serve work
// once fault masking is applied: configured RFU units whose whole span
// is healthy, plus the fixed units. Without faults it equals
// TotalCounts — the CEM demand path sees no difference.
func (f *Fabric) EffectiveTotalCounts() arch.Counts {
	if f.unavailMask == 0 {
		return f.alloc.TotalCounts()
	}
	var c arch.Counts
	for s := 0; s < arch.NumRFUSlots; s++ {
		if !f.healthOK[s] {
			continue
		}
		if t, ok := arch.DecodeUnit(f.alloc.Slots[s]); ok {
			c[t]++
		}
	}
	return c.Add(config.FFUCounts())
}

// recomputeHealthOK rebuilds the derived masks after a health,
// external-lease or allocation change: healthOK[s] is false for any
// slot in a non-healthy state or leased to a sibling core, and for any
// unit head whose span contains one (the unit's datapath crosses the
// bad slot, so the whole unit is masked). Called only on transitions,
// never on the per-cycle hot path.
func (f *Fabric) recomputeHealthOK() {
	unavail, dead := f.extUnavail, f.extDead
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.health[s] != HealthHealthy {
			unavail |= 1 << uint(s)
		}
		if f.health[s] == HealthDead {
			dead |= 1 << uint(s)
		}
	}
	for s := 0; s < arch.NumRFUSlots; s++ {
		f.healthOK[s] = unavail&(1<<uint(s)) == 0
	}
	for s := 0; s < arch.NumRFUSlots; s++ {
		if !f.healthOK[s] {
			continue
		}
		if t, ok := arch.DecodeUnit(f.alloc.Slots[s]); ok {
			_, hi := spanOf(t, s)
			for k := s + 1; k < hi && k < arch.NumRFUSlots; k++ {
				if unavail&(1<<uint(k)) != 0 {
					f.healthOK[s] = false
					break
				}
			}
		}
	}
	var okMask uint16
	for s := 0; s < arch.NumRFUSlots; s++ {
		if f.healthOK[s] {
			okMask |= 1 << uint(s)
		}
	}
	f.healthOKMask = okMask
	f.unavailMask, f.deadMask = unavail, dead
}

// installHealth applies the health consequences of slot s's frames
// being rewritten by a completing reconfiguration: a repair resolves
// (healthy, or dead when the bits are stuck), and a steering load over
// a transiently corrupt slot heals it as a side effect — the new
// configuration data overwrites the upset.
func (f *Fabric) installHealth(s int) {
	switch f.health[s] {
	case HealthRepairing:
		f.completeRepair(s)
	case HealthCorrupt, HealthDetected:
		if !f.permanent[s] {
			f.health[s] = HealthHealthy
			f.fstats.HealedByLoad++
			f.fault(s, obs.FaultHealed)
		}
	}
}

// completeRepair resolves a finished repair rewrite: transient faults
// heal; permanent stuck bits survive the rewrite and retire the slot.
func (f *Fabric) completeRepair(s int) {
	if f.permanent[s] {
		f.health[s] = HealthDead
		f.fstats.DeadSlots++
		f.fault(s, obs.FaultDead)
		return
	}
	f.health[s] = HealthHealthy
	f.fstats.Repaired++
	f.fault(s, obs.FaultRepaired)
}

// faultTick runs once per cycle, after the timers advanced, when the
// injector is armed: scrub, repair scheduling, dead-unit salvage, new
// upsets, and masked-cycle accounting. It allocates nothing.
func (f *Fabric) faultTick() {
	changed := false

	// Readback scrubbing: every ScrubInterval cycles the controller
	// reads the configuration frames back and flags corrupt slots.
	f.scrubCountdown--
	if f.scrubCountdown <= 0 {
		f.scrubCountdown = f.injector.ScrubInterval()
		f.fstats.ScrubScans++
		if f.sink != nil {
			f.sink.ScrubScan()
		}
		for s := range f.health {
			if f.health[s] == HealthCorrupt {
				f.health[s] = HealthDetected
				f.fstats.Detected++
				f.fault(s, obs.FaultDetected)
				changed = true
			}
		}
	}

	// Repair: rewrite detected slots by partial reconfiguration. A
	// repair is a one-slot span on the configuration bus, so it
	// competes with steering loads for bus capacity and must wait for
	// the covering unit to drain, exactly like a steering rewrite.
	for s := range f.health {
		if f.health[s] != HealthDetected || f.reconfig[s] > 0 {
			continue
		}
		if head := f.headOf(s); head >= 0 && f.busy[head] > 0 {
			continue // in-flight execution drains first
		}
		if f.extSlotBusy != nil && f.extSlotBusy(s) {
			continue // a sibling core is executing on the span
		}
		if f.busWidth > 0 && f.latency > 0 && f.busLoad() >= f.busWidth {
			continue // configuration bus fully occupied
		}
		f.fstats.RepairsStarted++
		f.fault(s, obs.FaultRepairStart)
		if f.latency == 0 {
			f.completeRepair(s)
		} else {
			f.health[s] = HealthRepairing
			f.reconfig[s] = f.latency
			f.reconfigMask |= 1 << uint(s)
			f.target[s] = f.alloc.Slots[s] // restore the golden copy
		}
		changed = true
	}

	// Salvage: a dead slot permanently retires its covering unit; once
	// that unit drains, blank the span so the surviving slots return
	// to the steering pool as empty, placeable space.
	allocChanged := false
	for s := range f.health {
		if f.health[s] != HealthDead || f.alloc.Slots[s] == arch.EncEmpty {
			continue
		}
		head := f.headOf(s)
		if head < 0 {
			f.alloc.Slots[s] = arch.EncEmpty
			changed, allocChanged = true, true
			continue
		}
		if f.busy[head] > 0 {
			continue
		}
		if f.extSlotBusy != nil && f.extSlotBusy(head) {
			continue // a sibling core still executes on the dying unit
		}
		t, _ := arch.DecodeUnit(f.alloc.Slots[head])
		lo, hi := spanOf(t, head)
		// An in-flight repair on any slot of the span holds its golden
		// copy as the rewrite target; blanking now would let that repair
		// re-install an orphan continuation when it completes. Wait for
		// the span's bus transactions to drain first.
		pending := false
		for k := lo; k < hi; k++ {
			if f.reconfig[k] > 0 {
				pending = true
				break
			}
		}
		if pending {
			continue
		}
		for k := lo; k < hi; k++ {
			f.alloc.Slots[k] = arch.EncEmpty
		}
		changed, allocChanged = true, true
	}
	if allocChanged {
		f.refreshAlloc()
	}

	// Inject new upsets. One draw per slot per cycle, in slot order,
	// regardless of eligibility — the stream stays a pure function of
	// (seed, cycle, slot), so fault histories are reproducible.
	for s := 0; s < arch.NumRFUSlots; s++ {
		k := f.injector.Draw()
		if k == fault.None {
			continue
		}
		if f.health[s] != HealthHealthy || f.reconfig[s] > 0 {
			continue // already faulted, or frames mid-rewrite
		}
		if f.extUnavail&(1<<uint(s)) != 0 {
			continue // leased to a sibling core; its injector owns the slot
		}
		f.health[s] = HealthCorrupt
		f.inject(s, k == fault.Permanent)
		changed = true
	}

	if changed {
		f.recomputeHealthOK()
	}
	if n := f.MaskedSlots(); n > 0 {
		f.fstats.MaskedSlotCycles += n
		if f.sink != nil {
			f.sink.MaskedSlotCycles(n)
		}
	}
}
