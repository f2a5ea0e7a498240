// Package core implements the paper's primary contribution: the
// configuration manager of §3 — the four-stage configuration selection
// unit of Fig. 2 (unit decoders, resource requirement encoders,
// configuration error metric generators, minimal error selection) and the
// configuration loader of §3.2 that steers the reconfigurable fabric
// toward the selected configuration by partially reconfiguring only the
// RFUs that differ and are idle.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cem"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/rfu"
)

// UnitDecoder is stage 1 of the selection unit: it turns one queued
// instruction's required unit type into the one-hot vector of Fig. 2.
func UnitDecoder(t arch.UnitType) [arch.NumUnitTypes]bool {
	var v [arch.NumUnitTypes]bool
	v[t] = true
	return v
}

// EncodeRequirements is stage 2: it sums the one-hot vectors of all
// queued instructions into the per-type three-bit requirement counts.
// With at most arch.QueueSize instructions the counts cannot overflow.
func EncodeRequirements(units []arch.UnitType) arch.Counts {
	var c arch.Counts
	for _, t := range units {
		oneHot := UnitDecoder(t)
		for ty, set := range oneHot {
			if set {
				c[ty]++
			}
		}
	}
	return c
}

// Selection is the outcome of one pass through the selection unit.
type Selection struct {
	// Choice identifies the winning configuration: 0 is the current
	// configuration, 1..3 the predefined steering configurations — the
	// unit's two-bit output.
	Choice int
	// Errors holds the four configuration error metrics, indexed like
	// Choice.
	Errors [arch.NumConfigs]int
	// Distances holds each candidate's reconfiguration distance from
	// the current allocation (zero for the current configuration).
	Distances [arch.NumConfigs]int
	// Required is the encoded requirement vector the metrics scored.
	Required arch.Counts
}

// Current reports whether the selection kept the current configuration.
func (s *Selection) Current() bool { return s.Choice == 0 }

// key builds the lexicographic comparison key the minimal-error selector
// orders candidates by: error first, then reconfiguration distance (the
// paper's tie-break toward least reconfiguration, which also makes the
// current configuration — distance zero — win every tie), then candidate
// index for determinism.
func key(err, distance, index int) int {
	return err<<6 | distance<<2 | index
}

// MinimalErrorSelect is stage 4: it returns the index of the candidate
// with the smallest (error, distance, index) key. Errors must be 3-bit
// values and distances at most arch.NumRFUSlots; out-of-range inputs
// panic, as they indicate a wiring error.
func MinimalErrorSelect(errors, distances [arch.NumConfigs]int) int {
	best := -1
	bestKey := 0
	for i := 0; i < arch.NumConfigs; i++ {
		if errors[i] < 0 || errors[i] > 7 || distances[i] < 0 || distances[i] > arch.NumRFUSlots {
			panic(fmt.Sprintf("core: selection inputs out of range: err=%d dist=%d", errors[i], distances[i]))
		}
		k := key(errors[i], distances[i], i)
		if best < 0 || k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// CircuitMinimalErrorSelect is the gate-level form of stage 4: each
// candidate's 3-bit error, 4-bit distance and 2-bit index are
// concatenated into a 9-bit key (error most significant) and a comparator
// chain keeps the smallest, emitting the winner's two-bit index. Tests
// prove it equivalent to MinimalErrorSelect.
func CircuitMinimalErrorSelect(errors, distances [arch.NumConfigs]int) int {
	// All buses live in fixed-size stack arrays so the comparator chain
	// runs without heap allocation (asserted by alloc_test.go).
	var bestKeyBits, keyBits [9]logic.Bit
	var bestIdxBits, idxBits [2]logic.Bit
	bestKey := logic.Bus(bestKeyBits[:])
	k := logic.Bus(keyBits[:])
	bestIdx := logic.Bus(bestIdxBits[:])
	idx := logic.Bus(idxBits[:])

	packCompareKey(bestKey, errors[0], distances[0], 0)
	for i := 1; i < arch.NumConfigs; i++ {
		packCompareKey(k, errors[i], distances[i], i)
		smaller := logic.LessThan(k, bestKey)
		for b := range bestKey {
			bestKey[b] = logic.Mux2(smaller, bestKey[b], k[b])
		}
		idx.SetUint(uint64(i))
		for b := range bestIdx {
			bestIdx[b] = logic.Mux2(smaller, bestIdx[b], idx[b])
		}
	}
	return int(bestIdx.Uint())
}

// packCompareKey wires one candidate's 9-bit comparison key into dst:
// two index bits (least significant), four distance bits, three error
// bits (most significant) — so LessThan orders by error, then distance,
// then index, matching MinimalErrorSelect's key function.
func packCompareKey(dst logic.Bus, err, dist, idx int) {
	dst[0:2].SetUint(uint64(idx))
	dst[2:6].SetUint(uint64(dist))
	dst[6:9].SetUint(uint64(err))
}

// Stats counts the manager's activity for the experiment harness.
type Stats struct {
	// Selections[i] counts cycles on which candidate i won.
	Selections [arch.NumConfigs]int
	// Reconfigurations counts span rewrites the loader started.
	Reconfigurations int
	// DeferredSlots counts slot rewrites skipped because the span was
	// busy — the partial-reconfiguration deferrals of §3.2.
	DeferredSlots int
	// HybridCycles counts selection passes on which the live allocation
	// matched none of the predefined layouts — evidence of the hybrid
	// configurations the paper's approach produces.
	HybridCycles int
	// SuppressedLoads counts selections that wanted a new configuration
	// but were held back by the residency timer.
	SuppressedLoads int
	// HeldLoads counts selections that wanted a new configuration but
	// were held back by an active speculative prefetch (HoldTarget).
	HeldLoads int
	// CacheHits and CacheMisses count steering-cache lookups: a hit
	// replays a previously computed selection for the same packed
	// (demand, allocation) key, a miss runs the CEM generators.
	CacheHits   int
	CacheMisses int
	// PrefetchIssued counts speculative span rewrites the prefetch
	// policy (internal/predict) started on otherwise-unused
	// configuration-bus spans; the remaining Prefetch* fields count how
	// its speculations ended. PrefetchWastedSpans is the bus bandwidth
	// charged to mispredicted or cancelled speculations — spans loaded
	// for a configuration that never served demand.
	PrefetchIssued       int
	PrefetchConfirmed    int
	PrefetchMispredicted int
	PrefetchCancelled    int
	PrefetchWastedSpans  int
	// PhaseChanges counts workload phase boundaries the prefetch
	// policy's demand-history detector flagged.
	PhaseChanges int
}

// Steering-cache geometry: a small direct-mapped table indexed by a
// multiplicative hash of the packed key. 512 entries is comfortably
// larger than the working set of distinct (demand, allocation) pairs a
// phase exhibits (the demand vector alone has ≤ 8^5 values, but steady
// state visits a handful).
const (
	steerCacheBits = 9
	steerCacheSize = 1 << steerCacheBits
	// encodingBits is the width of one slot encoding in the packed key
	// (arch.Encoding values are 0..7).
	encodingBits = 3
)

// steerEntry is one direct-mapped cache line. key holds the packed key
// plus one so that the zero value means "empty"; the payload is the full
// Selection except Required, which the hit path copies from the live
// input.
type steerEntry struct {
	key    uint64
	choice uint8
	errs   [arch.NumConfigs]uint8
	dists  [arch.NumConfigs]uint8
}

// packSteerKey packs everything Select's outputs depend on into one
// 55-bit key: the five demand counts clamped to the 3-bit range the CEM
// actually sees (bits 0–14), the live allocation's slot encodings
// (bits 15–38), and the fabric's fault masks — the non-healthy slots
// (bits 39–46) and the permanently dead slots (bits 47–54). Both masks
// are zero without fault injection, so fault-free keys are unchanged.
// Availability counts, distances and hence the choice are pure
// functions of these, so keying on the allocation vector and masks also
// subsumes invalidation: a reconfiguration, an upset or a repair
// changes the inputs and thereby selects a different key — which is
// what keeps cached steering bit-identical to uncached steering under
// any fault stream.
func packSteerKey(required arch.Counts, slots [arch.NumRFUSlots]arch.Encoding, unavail, dead uint8) uint64 {
	var k uint64
	for t := range required {
		c := required[t]
		if c < 0 {
			c = 0
		} else if c > 7 {
			c = 7
		}
		k |= uint64(c) << (uint(t) * arch.CountBits)
	}
	const demandBits = uint(arch.NumUnitTypes * arch.CountBits)
	for i, e := range slots {
		k |= uint64(e) << (demandBits + uint(i)*encodingBits)
	}
	const slotBits = demandBits + arch.NumRFUSlots*encodingBits
	k |= uint64(unavail) << slotBits
	k |= uint64(dead) << (slotBits + arch.NumRFUSlots)
	return k
}

// steerCacheIndex maps a packed key to a table slot by Fibonacci
// (multiplicative) hashing, which spreads the low-entropy packed bits.
func steerCacheIndex(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - steerCacheBits))
}

// Manager is the configuration manager: selection unit plus loader, bound
// to a fabric and a steering basis.
type Manager struct {
	basis [3]config.Configuration
	// basisAvail caches each basis configuration's availability counts
	// (unit mix + FFUs) — the hard-wired CEM inputs of Fig. 3(b).
	basisAvail [3]arch.Counts
	fabric     *rfu.Fabric
	// ExactCEM switches the error metric generators to the paper's
	// "more accurate divider" variant (the X3 ablation).
	ExactCEM bool
	// MinResidency suppresses loading a new configuration until at
	// least this many cycles have passed since the last load — a
	// residency timer that damps per-cycle selection thrash on short
	// loops whose demand oscillates within one loop body (the X11
	// study). Zero (the paper's design) reloads every cycle the
	// selection changes.
	MinResidency int
	// DisableCache bypasses the steering cache so every Select runs the
	// CEM generators — used by the equivalence tests and ablations.
	DisableCache bool
	// HoldTarget, when non-zero, names the basis configuration (1..3) a
	// speculative prefetch has committed to: loads toward any other
	// configuration are suppressed (and counted in Stats.HeldLoads)
	// until the speculation resolves. Selection, statistics and naming
	// run unchanged, so the reactive selector still exposes what it
	// would have done — that is the evidence speculations are resolved
	// against. Loads toward the held target itself always proceed.
	HoldTarget int

	sinceLoad int
	stats     Stats

	// cache is the direct-mapped steering cache; cacheExact records the
	// ExactCEM mode its entries were computed under, so toggling the
	// metric flushes them.
	cache      [steerCacheSize]steerEntry
	cacheExact bool
	// basisUnits holds each basis configuration's placement list,
	// computed once at NewManager so Load never rebuilds it.
	basisUnits [3][]config.PlacedUnit
	// sel is the selection Step returns. memo records the inputs the
	// steering cache keyed it on; while they repeat, the cache entry
	// Select stored or hit for them is still in place, so Step reuses
	// sel as that cache hit without repacking the key (see Step).
	sel  Selection
	memo struct {
		ok            bool
		required      arch.Counts
		version       uint64
		unavail, dead uint8
	}
	// classifyName memoizes Classify against the fabric's
	// allocation version: the name is recomputed only when the
	// allocation vector actually changed, not every cycle. The empty
	// string marks "not yet computed".
	classifyName    string
	classifyVersion uint64
}

// NewManager binds a configuration manager to a fabric, steering with the
// given predefined configurations. Invalid basis configurations panic.
func NewManager(fabric *rfu.Fabric, basis [3]config.Configuration) *Manager {
	m := &Manager{basis: basis, fabric: fabric}
	for i, c := range basis {
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("core: invalid steering configuration: %v", err))
		}
		m.basisAvail[i] = c.Counts().Add(config.FFUCounts())
		m.basisUnits[i] = c.AppendUnits(nil)
	}
	return m
}

// Basis returns the manager's predefined steering configurations.
func (m *Manager) Basis() [3]config.Configuration { return m.basis }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// NotePrefetch accumulates speculative-prefetch deltas into the stats.
// The stats live here rather than in the predict package so prefetch
// accounting rides the same Stats value every report path already
// consumes.
func (m *Manager) NotePrefetch(issued, confirmed, mispredicted, cancelled, wastedSpans, phaseChanges int) {
	m.stats.PrefetchIssued += issued
	m.stats.PrefetchConfirmed += confirmed
	m.stats.PrefetchMispredicted += mispredicted
	m.stats.PrefetchCancelled += cancelled
	m.stats.PrefetchWastedSpans += wastedSpans
	m.stats.PhaseChanges += phaseChanges
}

// errorOf runs one CEM generator.
func (m *Manager) errorOf(required, available arch.Counts) int {
	if m.ExactCEM {
		return cem.ErrorExact(required, available)
	}
	return cem.Error(required, available)
}

// Select runs the selection unit over the requirement counts of the
// unscheduled queue instructions and writes the chosen configuration to
// sel. Availability counts include the FFUs for every candidate
// ("…relative to each of the four configurations including the FFUs",
// §3.1).
func (m *Manager) Select(required arch.Counts, sel *Selection) {
	// A lookup outside Step may evict the entry Step's memo relies on.
	m.memo.ok = false
	m.lookup(required, sel)
}

// lookup is Select through the steering cache.
func (m *Manager) lookup(required arch.Counts, sel *Selection) {
	alloc := m.fabric.Allocation()
	unavail, dead := m.fabric.HealthMasks()
	if m.DisableCache {
		m.selectUncached(required, alloc, dead, sel)
		return
	}
	if m.cacheExact != m.ExactCEM {
		// The error metric changed out from under the cached entries;
		// flush in place (no allocation — the table is an array field).
		m.cache = [steerCacheSize]steerEntry{}
		m.cacheExact = m.ExactCEM
		if s := m.fabric.Sink(); s != nil {
			s.SteerCacheFlush()
		}
	}
	key := packSteerKey(required, alloc.Slots, unavail, dead)
	e := &m.cache[steerCacheIndex(key)]
	if e.key == key+1 {
		m.stats.CacheHits++
		if s := m.fabric.Sink(); s != nil {
			s.SteerCacheLookup(true)
		}
		sel.Required = required
		sel.Choice = int(e.choice)
		for i := range sel.Errors {
			sel.Errors[i] = int(e.errs[i])
			sel.Distances[i] = int(e.dists[i])
		}
		return
	}
	m.stats.CacheMisses++
	if s := m.fabric.Sink(); s != nil {
		s.SteerCacheLookup(false)
	}
	m.selectUncached(required, alloc, dead, sel)
	e.key = key + 1
	e.choice = uint8(sel.Choice)
	for i := range sel.Errors {
		e.errs[i] = uint8(sel.Errors[i])
		e.dists[i] = uint8(sel.Distances[i])
	}
}

// selectUncached runs the four CEM generators and the minimal-error
// selector directly — the cache-miss (and cache-disabled) path. Under
// fault injection the current-configuration candidate scores the
// degraded unit mix (fault-masked units are not available capacity),
// and each basis candidate loses the units it can no longer realise
// because their spans cross permanently dead slots. Transiently faulty
// slots do not discount the basis candidates: loading a configuration
// rewrites their frames, restoring them.
func (m *Manager) selectUncached(required arch.Counts, alloc config.AllocationVector, dead uint8, sel *Selection) {
	sel.Required = required
	sel.Errors[0] = m.errorOf(required, m.fabric.EffectiveTotalCounts())
	sel.Distances[0] = 0
	for i := range m.basis {
		avail := m.basisAvail[i]
		if dead != 0 {
			avail = m.degradedBasisAvail(i, dead)
		}
		sel.Errors[i+1] = m.errorOf(required, avail)
		sel.Distances[i+1] = alloc.Distance(m.basis[i])
	}
	sel.Choice = MinimalErrorSelect(sel.Errors, sel.Distances)
}

// degradedBasisAvail recomputes basis configuration i's availability
// counts with dead slots excluded: a unit whose span covers a dead slot
// cannot be placed there anymore. Allocation-free (runs on the
// selection hot path when slots have died).
func (m *Manager) degradedBasisAvail(i int, dead uint8) arch.Counts {
	var c arch.Counts
	layout := m.basis[i].Layout
	for s := 0; s < arch.NumRFUSlots; s++ {
		t, ok := arch.DecodeUnit(layout[s])
		if !ok {
			continue
		}
		span := arch.SlotCost(t)
		spanMask := uint8((1<<uint(span) - 1) << uint(s))
		if dead&spanMask == 0 {
			c[t]++
		}
	}
	return c.Add(config.FFUCounts())
}

// Load steers the fabric toward the selected configuration: when a
// predefined configuration won, every unit span of its layout that
// differs from the live allocation is rewritten if its slots are idle,
// and deferred otherwise. Keeping the current configuration loads
// nothing. It returns the number of span rewrites started.
func (m *Manager) Load(sel *Selection) int {
	if sel.Current() {
		return 0
	}
	target := m.basis[sel.Choice-1]
	sink := m.fabric.Sink()
	from := ""
	diff := 0
	if sink != nil {
		// Snapshot the pre-load state for the steering-decision record.
		from = m.Classify()
		diff = m.fabric.Allocation().Distance(target)
	}
	started, loading, deferred := 0, 0, 0
	alloc := m.fabric.Allocation()
	for _, u := range m.basisUnits[sel.Choice-1] {
		if alloc.Slots[u.Slot] == arch.Encode(u.Type) {
			continue // already implements the specified unit (§3.2)
		}
		if !m.fabric.CanReconfigure(u.Type, u.Slot) {
			deferred += u.Span
			continue
		}
		if m.fabric.Reconfigure(u.Type, u.Slot) {
			started++
			loading += u.Span
		}
	}
	m.stats.Reconfigurations += started
	m.stats.DeferredSlots += deferred
	if sink != nil && started > 0 {
		sink.ConfigSwitch(obs.Decision{
			From:            from,
			To:              target.Name,
			Choice:          sel.Choice,
			DiffSlots:       diff,
			Spans:           started,
			SlotsLoading:    loading,
			DeferredSlots:   deferred,
			StallSlotCycles: loading * m.fabric.ReconfigLatency(),
		})
	}
	return started
}

// Classify names the live allocation for the decision log: a basis
// configuration's name, "(empty)", or "hybrid". The answer is a
// pure function of the allocation vector, so it is memoized against the
// fabric's allocation version — Step calls this every cycle but the
// vector changes only on reconfiguration installs and salvage.
func (m *Manager) Classify() string {
	if v := m.fabric.AllocVersion(); v != m.classifyVersion || m.classifyName == "" {
		m.classifyName = m.classifyAllocationSlow()
		m.classifyVersion = v
	}
	return m.classifyName
}

func (m *Manager) classifyAllocationSlow() string {
	slots := m.fabric.Allocation().Slots
	empty := true
	for _, e := range slots {
		if e != arch.EncEmpty {
			empty = false
			break
		}
	}
	if empty {
		return "(empty)"
	}
	for _, cfg := range m.basis {
		if slots == cfg.Layout {
			return cfg.Name
		}
	}
	return "hybrid"
}

// Step performs one cycle of configuration management: encode the queue's
// requirements, select, and load (subject to the residency timer). It
// returns the selection for tracing; the manager owns it, and the next
// Step overwrites it.
//
// When the demand vector, the allocation version and the health masks
// all equal the previous Step's, with the cache on and the metric
// unchanged, the previous selection stands: the steering cache keys on
// the clamped demand, the slot encodings and the same masks, so equal
// inputs give an equal key, and the entry stored or hit for that key
// is still in place (only lookups write the cache, and Select outside
// Step clears the memo). Step counts the reuse as the cache hit the
// lookup would have been.
func (m *Manager) Step(required arch.Counts) *Selection {
	sel := &m.sel
	version := m.fabric.AllocVersion()
	unavail, dead := m.fabric.HealthMasks()
	if m.memo.ok && !m.DisableCache && m.cacheExact == m.ExactCEM && m.memo.required == required &&
		m.memo.version == version && m.memo.unavail == unavail && m.memo.dead == dead {
		m.stats.CacheHits++
		if s := m.fabric.Sink(); s != nil {
			s.SteerCacheLookup(true)
		}
	} else {
		m.lookup(required, sel)
		m.memo.ok = !m.DisableCache
		m.memo.required, m.memo.version = required, version
		m.memo.unavail, m.memo.dead = unavail, dead
	}
	m.stats.Selections[sel.Choice]++
	if s := m.fabric.Sink(); s != nil {
		s.Selection(sel.Errors, sel.Choice)
	}
	if m.isHybrid() {
		m.stats.HybridCycles++
	}
	m.sinceLoad++
	if !sel.Current() && m.sinceLoad <= m.MinResidency {
		m.stats.SuppressedLoads++
		return sel
	}
	if m.HoldTarget != 0 && !sel.Current() && sel.Choice != m.HoldTarget {
		// An active speculative prefetch holds the configuration: a
		// claw-back load here would revert half-converted spans and
		// freeze them for another full reconfiguration latency.
		m.stats.HeldLoads++
		return sel
	}
	if m.Load(sel) > 0 {
		m.sinceLoad = 0
	}
	return sel
}

// isHybrid reports whether the live allocation matches none of the
// predefined layouts (and is not empty).
func (m *Manager) isHybrid() bool { return m.Classify() == "hybrid" }
