package core

import (
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/rfu"
)

// DemandManager implements the paper's §5 future-work idea: dynamically
// reconfiguring the fabric *without* predefined steering configurations.
// Instead of scoring a fixed basis, every cycle it synthesises a target
// layout directly from the queue's requirement counts — a greedy packing
// that repeatedly adds the unit type with the highest unmet demand per
// already-provided unit until the slots are full — and then loads it with
// the same partial, idle-only discipline as the steering loader.
//
// To avoid thrashing on single-cycle demand noise, the manager only
// replaces an existing unit when the incoming unit's demand benefit
// exceeds the kept unit's by at least Hysteresis demand points.
//
// The synthesised target is a pure function of the demand counts, the
// live slot encodings and Hysteresis, so Step looks it up in a small
// direct-mapped cache keyed on exactly those inputs (see packDemandKey).
type DemandManager struct {
	fabric *rfu.Fabric
	// Hysteresis is the minimum per-unit demand advantage a new unit
	// needs before an existing, differently-typed unit is evicted
	// (default 0: pure greedy).
	Hysteresis int

	// Syntheses counts cycles with nonzero demand: each yields a
	// target, synthesised or found in the cache.
	Syntheses int
	// Reconfigurations counts span rewrites started.
	Reconfigurations int
	// DeferredSlots counts slot rewrites skipped because spans were
	// busy.
	DeferredSlots int

	// Per-cycle scratch buffers, reused across Steps so the hot path
	// does not allocate: kept marks slots claimed by the synthesis pass,
	// unitsScratch holds the placement decode of the current layout.
	kept         [arch.NumRFUSlots]bool
	unitsScratch []config.PlacedUnit

	// cache is the direct-mapped target cache; cacheHysteresis is the
	// Hysteresis its entries were synthesised under.
	cache           [demandCacheSize]demandEntry
	cacheHysteresis int
}

// Target-cache geometry. 256 entries hold the distinct (demand, layout)
// pairs a kernel cycles through when its demand keeps rewriting the
// fabric; a single-entry memo misses on exactly those kernels.
const (
	demandCacheBits = 8
	demandCacheSize = 1 << demandCacheBits
	// demandCountBits is the width of one demand count in the packed
	// key. A count outside [0, 127] takes the uncached path.
	demandCountBits = 7
	demandCountMax  = 1<<demandCountBits - 1
)

// demandEntry is one direct-mapped cache line: the packed key plus one
// (so the zero value means "empty") and the synthesised layout.
type demandEntry struct {
	key    uint64
	target [arch.NumRFUSlots]arch.Encoding
}

// packDemandKey packs the whole input of plan + synthesize bar
// Hysteresis into one 59-bit key: the five demand counts at 7 bits each
// (bits 0–34) and the live slot encodings at 3 bits each (bits 35–58).
// Unlike the steering key the counts are not clamped: plan weighs their
// exact values. ok is false when a count does not fit.
func packDemandKey(required arch.Counts, slots [arch.NumRFUSlots]arch.Encoding) (key uint64, ok bool) {
	for t, c := range required {
		if c < 0 || c > demandCountMax {
			return 0, false
		}
		key |= uint64(c) << (uint(t) * demandCountBits)
	}
	const countBits = uint(arch.NumUnitTypes * demandCountBits)
	for i, e := range slots {
		key |= uint64(e) << (countBits + uint(i)*arch.EncodingBits)
	}
	return key, true
}

// demandCacheIndex maps a packed key to a table slot by Fibonacci
// hashing, as steerCacheIndex does.
func demandCacheIndex(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - demandCacheBits))
}

// placeOrder lists unit types largest-span first so multi-slot spans
// find contiguous room during synthesis.
var placeOrder = [arch.NumUnitTypes]arch.UnitType{
	arch.FPMDU, arch.FPALU, arch.IntMDU, arch.LSU, arch.IntALU,
}

// NewDemandManager binds a demand-driven manager to a fabric.
func NewDemandManager(fabric *rfu.Fabric) *DemandManager {
	return &DemandManager{
		fabric:       fabric,
		unitsScratch: make([]config.PlacedUnit, 0, arch.NumRFUSlots),
	}
}

// plan chooses the unit multiset to configure: greedy highest
// demand-per-unit packing into arch.NumRFUSlots slots. FFUs count as one
// pre-provided unit of each type, exactly as the CEM's availability does.
func (m *DemandManager) plan(required arch.Counts) arch.Counts {
	var planned arch.Counts
	provided := config.FFUCounts()
	slotsLeft := arch.NumRFUSlots
	for {
		best := -1
		bestBenefit := 0
		for ti := 0; ti < arch.NumUnitTypes; ti++ {
			t := arch.UnitType(ti)
			if arch.SlotCost(t) > slotsLeft {
				continue
			}
			// Demand still unserved per unit already provided; scaled
			// to keep integer arithmetic exact.
			benefit := required[t] * 8 / (provided[t] + planned[t] + 1) / arch.SlotCost(t)
			if benefit > bestBenefit {
				best, bestBenefit = int(t), benefit
			}
		}
		if best < 0 || bestBenefit == 0 {
			break
		}
		planned[best]++
		slotsLeft -= arch.SlotCost(arch.UnitType(best))
	}
	return planned
}

// synthesize converts the planned multiset into a concrete slot layout
// against the live slots, keeping existing units that are part of the
// plan in place so the loader's diff — and therefore reconfiguration
// traffic — is minimal.
func (m *DemandManager) synthesize(planned, required arch.Counts, slots [arch.NumRFUSlots]arch.Encoding) config.Configuration {
	cur := config.Configuration{Layout: slots}
	target := config.Configuration{Name: "demand"}

	// Keep existing units the plan still wants, at their positions.
	remaining := planned
	m.kept = [arch.NumRFUSlots]bool{}
	kept := m.kept[:]
	m.unitsScratch = cur.AppendUnits(m.unitsScratch[:0])
	for _, u := range m.unitsScratch {
		if remaining[u.Type] > 0 {
			remaining[u.Type]--
			target.Layout[u.Slot] = arch.Encode(u.Type)
			for k := 1; k < u.Span; k++ {
				target.Layout[u.Slot+k] = arch.EncCont
			}
			for k := 0; k < u.Span; k++ {
				kept[u.Slot+k] = true
			}
		}
	}

	// Place the rest, largest units first so multi-slot spans find
	// contiguous room, into leftmost non-kept gaps. With hysteresis, a
	// gap occupied by a live unit is only claimed when the incoming
	// type's demand beats the occupant's by the margin.
	for _, t := range placeOrder {
		for remaining[t] > 0 {
			slot := m.findGap(target.Layout, kept, cur, t, required)
			if slot < 0 {
				break
			}
			target.Layout[slot] = arch.Encode(t)
			for k := 1; k < arch.SlotCost(t); k++ {
				target.Layout[slot+k] = arch.EncCont
			}
			for k := 0; k < arch.SlotCost(t); k++ {
				kept[slot+k] = true
			}
			remaining[t]--
		}
	}
	return target
}

// findGap locates the leftmost span of non-kept slots where a unit of
// type t may be placed, honouring the hysteresis rule against live
// occupants.
func (m *DemandManager) findGap(layout [arch.NumRFUSlots]arch.Encoding, kept []bool,
	cur config.Configuration, t arch.UnitType, required arch.Counts) int {
	span := arch.SlotCost(t)
	for start := 0; start+span <= arch.NumRFUSlots; start++ {
		ok := true
		for k := start; k < start+span; k++ {
			if kept[k] {
				ok = false
				break
			}
			if occ := occupantType(cur, k); occ >= 0 && m.Hysteresis > 0 {
				if required[t]-required[occ] < m.Hysteresis {
					ok = false
					break
				}
			}
		}
		if ok {
			return start
		}
	}
	return -1
}

// occupantType returns the type of the live unit covering slot k, or -1.
// It scans backward from k for the span's head slot instead of decoding
// the whole layout, so it allocates nothing.
func occupantType(cur config.Configuration, k int) int {
	for s := k; s >= 0; s-- {
		e := cur.Layout[s]
		if e == arch.EncEmpty {
			return -1
		}
		if e == arch.EncCont {
			continue
		}
		t, ok := arch.DecodeUnit(e)
		if !ok || k >= s+arch.SlotCost(t) {
			return -1
		}
		return int(t)
	}
	return -1
}

// Target returns the layout the manager would synthesise for the given
// demand — exposed for tests and analysis. It bypasses the cache.
func (m *DemandManager) Target(required arch.Counts) config.Configuration {
	return m.synthesize(m.plan(required), required, m.fabric.Allocation().Slots)
}

// target is Target through the cache, for the live slots.
func (m *DemandManager) target(required arch.Counts, slots [arch.NumRFUSlots]arch.Encoding) [arch.NumRFUSlots]arch.Encoding {
	if m.cacheHysteresis != m.Hysteresis {
		// Entries were synthesised under the old margin; flush in place.
		m.cache = [demandCacheSize]demandEntry{}
		m.cacheHysteresis = m.Hysteresis
	}
	key, ok := packDemandKey(required, slots)
	if !ok {
		return m.synthesize(m.plan(required), required, slots).Layout
	}
	e := &m.cache[demandCacheIndex(key)]
	if e.key != key+1 {
		e.key = key + 1
		e.target = m.synthesize(m.plan(required), required, slots).Layout
	}
	return e.target
}

// Step performs one cycle of demand-driven management: synthesise a
// target and partially load it (idle spans only). A target equal to
// the live layout has nothing to load.
func (m *DemandManager) Step(required arch.Counts) {
	if required.Total() == 0 {
		return
	}
	m.Syntheses++
	slots := m.fabric.Allocation().Slots
	target := m.target(required, slots)
	if target == slots {
		return
	}
	// Visit the target's unit heads left to right; continuation slots
	// do not decode. Each check reads the live layout, which the
	// rewrites before it may have changed.
	for slot, e := range target {
		t, ok := arch.DecodeUnit(e)
		if !ok || m.fabric.Allocation().Slots[slot] == e {
			continue
		}
		if !m.fabric.CanReconfigure(t, slot) {
			m.DeferredSlots += arch.SlotCost(t)
			continue
		}
		if m.fabric.Reconfigure(t, slot) {
			m.Reconfigurations++
		}
	}
}

// Manage adapts the manager to the cpu.Manager interface.
func (m *DemandManager) Manage(required arch.Counts) { m.Step(required) }
