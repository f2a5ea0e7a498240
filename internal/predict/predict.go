// Package predict implements the phase-aware configuration prediction
// and prefetch subsystem layered on top of the paper's reactive steering
// manager. The reactive selection unit (package core) only sees the
// instructions already queued, so every configuration switch eats the
// full partial-reconfiguration latency on the critical path. The
// predictor hides part of that latency by learning the workload's phase
// structure and loading the next configuration speculatively, before
// demand shifts:
//
//   - a fixed-size ring of per-type 3-bit demand vectors supplies a
//     short-horizon demand average (exact, integer, O(1) per cycle);
//   - a long-horizon EWMA of the same demands supplies the baseline a
//     phase-change detector compares the ring average against;
//   - a first-order Markov table over observed steering-configuration
//     transitions predicts which basis configuration follows the
//     current one;
//   - measured phase lengths (cycles between detected phase changes)
//     let the predictor *anticipate* the next boundary and start
//     loading early, when hiding the reconfiguration latency is worth
//     a bounded error-metric sacrifice.
//
// Speculative loads are partial reconfigurations of idle RFU spans
// issued through the same rfu.Fabric.CanReconfigure/Reconfigure gate as
// demand steering and fault repairs, so prefetch traffic competes
// fairly for the configuration bus: repairs (fabric tick) go first,
// demand steering (core.Manager.Step) second, and the prefetcher only
// takes spans the bus has left over. Outcomes — confirm, mispredict,
// cancel, wasted bus spans — accumulate into core.Stats and reach the
// fabric's observer (telemetry logs them as record:"prefetch" events).
package predict

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rfu"
)

// Defaults and fixed tuning constants of the predictor. The fixed-point
// scale keeps all phase arithmetic in integers, so prediction is
// bit-deterministic across platforms.
const (
	// DefaultHistoryDepth is the demand-history ring size.
	DefaultHistoryDepth = 32
	// DefaultConfidence is the Markov confidence threshold.
	DefaultConfidence = 0.55

	// fpScale is the fixed-point scale of the demand averages (<<8).
	fpShift = 8
	// ewmaShift sets the long-horizon EWMA decay to alpha = 1/32.
	ewmaShift = 5
	// entryShift sets the phase-entry profile decay to alpha = 1/8 — the
	// entry window is short, so the profile must adapt within a few
	// visits.
	entryShift = 3
	// phaseThreshFP is the phase-change detection threshold: the sum of
	// per-type |short - long| demand distances, in fixed point (1.25
	// demand units).
	phaseThreshFP = 320
	// minTransitions is the smallest Markov row total trusted for
	// prediction.
	minTransitions = 2
	// settleCycles is how long a basis configuration must be held before
	// it counts as a Markov state. Reactive steering often hops through a
	// transient configuration mid-shift (the demand mixture passes
	// through a memory-ish blend on its way from integer to floating
	// point, say); learning those hops as transitions poisons the table
	// and turns predictions into mid-phase mispredicts.
	settleCycles = 16
	// specTTLFallback bounds a speculation's lifetime before any phase
	// length has been measured.
	specTTLFallback = 1024
	// maxSpecOpens bounds speculations per phase window: one premature
	// open resolved as mispredicted may retry once closer to the real
	// boundary, but a third would be thrash.
	maxSpecOpens = 2
	// specShortfall is how many units below the short-horizon demand
	// ceiling a speculative rewrite may briefly push a unit type. The
	// dip only lasts the tail of the dying phase — anticipation starts
	// one reconfiguration latency before the predicted boundary — so a
	// two-unit shortfall against demand that is about to vanish buys
	// units the next phase's queue would otherwise block on.
	specShortfall = 2
)

// Config tunes the predictor; zero fields select the defaults.
type Config struct {
	// HistoryDepth sizes the demand-history ring (default 32).
	HistoryDepth int
	// Confidence is the fraction of a Markov row's transitions the
	// predicted successor must hold before speculative loads are issued
	// (default 0.55).
	Confidence float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HistoryDepth <= 0 {
		c.HistoryDepth = DefaultHistoryDepth
	}
	if c.Confidence <= 0 {
		c.Confidence = DefaultConfidence
	}
	return c
}

// Manager is the prefetch policy: the reactive steering manager plus
// the predictor and speculative loader. It implements cpu.Manager.
type Manager struct {
	m      *core.Manager
	fabric *rfu.Fabric

	depth   int
	confPct int // confidence threshold in percent
	// depthShift is log2(depth) when depth is a power of two, else -1:
	// once the ring is full, the short-horizon average divides by a
	// shift instead.
	depthShift int

	// Demand-history ring of clamped 3-bit vectors with a running sum,
	// so the short-horizon average is exact and O(1) to maintain.
	ring    []arch.Counts
	ringPos int
	ringN   int
	ringSum arch.Counts

	// Long-horizon per-type demand EWMA in fixed point (<<fpShift).
	ewma [arch.NumUnitTypes]int

	// Per-basis phase-entry demand profiles: an EWMA of the demand
	// observed during the entry window of each basis configuration —
	// the queue flood right after a switch, before the new units come
	// online and drain it — in fixed point (<<fpShift). Steady-state
	// demand is useless as a value signal (a well-configured phase
	// serves its queue, so measured demand collapses); the entry flood
	// is what the next boundary will look like, and the profile of the
	// predicted successor is the value side of the speculation ledger.
	profile     [arch.NumConfigs][arch.NumUnitTypes]int
	profileSeen [arch.NumConfigs]bool
	lastDemand  arch.Counts

	// First-order Markov table over observed steering-configuration
	// transitions: markov[from][to] counts settled reactive selection
	// switches from basis config `from` to basis config `to`. A switch
	// only settles — and only then becomes a Markov state — after the
	// new basis has been held settleCycles. Row 0 covers the run's first
	// transition (no prior basis).
	markov       [arch.NumConfigs][arch.NumConfigs]int
	curBasis     int // last basis the reactive selector named
	heldSince    int // cycle curBasis was first named
	settledBasis int // last basis held long enough to count

	// Phase-change detector state. The boundary clock (lastChange /
	// phaseLen) ticks on either boundary signal — a reactive basis
	// switch, or an accepted demand-shift detection — deduplicated by a
	// refractory window, so it keeps ticking even when prefetching has
	// fully converted the fabric and the reactive selector no longer
	// needs to switch.
	cycle      int
	inShift    bool
	lastChange int
	phaseLen   int // EWMA of measured phase lengths, in cycles
	phaseSeen  bool
	phaseCount int // accepted boundary ticks so far
	phaseDom   int // dominant demand class of the current phase (-1 initially)

	// Per-basis phase lengths: how long the workload tends to stay in
	// each basis configuration's phase. Phases of different mixes run at
	// different IPC, so their cycle lengths differ systematically and a
	// single global average anticipates each of them wrongly.
	basisLen     [arch.NumConfigs]int
	basisLenSeen [arch.NumConfigs]bool
	lastSettle   int

	// Active speculation: one predicted target at a time. Spans issued
	// for it are charged as wasted bus spans if it ends mispredicted or
	// cancelled.
	specActive  bool
	specTarget  int // basis index 1..3
	specSpans   int
	specStart   int
	specConfPct int
	// specHeldStreak counts consecutive cycles the reactive selector
	// named a configuration other than the speculation target while the
	// hold suppressed its load. A sustained streak is live evidence the
	// prediction is wrong (or premature) and resolves it as mispredicted
	// — without this, a premature speculation would hold a degraded
	// allocation against real demand until the boundary finally arrives.
	specHeldStreak int
	// specOpens counts speculations opened in the current phase window,
	// so a mispredict-and-retry cycle cannot thrash.
	specOpens int
	// specIssued marks slots already speculatively rewritten under the
	// active speculation, so a span the reactive selector claws back is
	// not re-fought every cycle (each round trip would freeze the span
	// for a full reconfiguration latency).
	specIssued [arch.NumRFUSlots]bool

	// Reusable scratch buffers so Manage never allocates.
	unitsScratch []config.PlacedUnit
	liveScratch  []config.PlacedUnit
}

// NewManagerBasis builds the prefetch policy over a fabric with the
// given steering basis (config.DefaultBasis for the paper's Table 1).
func NewManagerBasis(fabric *rfu.Fabric, basis [3]config.Configuration, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	depthShift := -1
	if d := cfg.HistoryDepth; d&(d-1) == 0 {
		depthShift = bits.TrailingZeros(uint(d))
	}
	return &Manager{
		m:            core.NewManager(fabric, basis),
		fabric:       fabric,
		depth:        cfg.HistoryDepth,
		depthShift:   depthShift,
		confPct:      int(cfg.Confidence * 100),
		ring:         make([]arch.Counts, cfg.HistoryDepth),
		phaseDom:     -1,
		unitsScratch: make([]config.PlacedUnit, 0, arch.NumRFUSlots),
		liveScratch:  make([]config.PlacedUnit, 0, arch.NumRFUSlots),
	}
}

// Core exposes the wrapped reactive steering manager (for residency and
// cache knobs, stats and reports).
func (pm *Manager) Core() *core.Manager { return pm.m }

// Manage runs one cycle of prediction-augmented configuration
// management: record demand history, run the reactive selection/load
// pass unchanged, learn the configuration transition it exposed, and
// issue or retire speculative loads.
func (pm *Manager) Manage(required arch.Counts) {
	pm.cycle++
	pm.observe(required)
	sel := pm.m.Step(required)
	pm.transition(sel)
	pm.speculate(sel)
}

// observe pushes the cycle's demand vector into the history ring,
// updates the long-horizon EWMA and runs the phase-change detector.
func (pm *Manager) observe(required arch.Counts) {
	var d arch.Counts
	for t, v := range required {
		if v < 0 {
			v = 0
		} else if v > 7 {
			v = 7
		}
		d[t] = v
	}
	if pm.ringN == pm.depth {
		old := pm.ring[pm.ringPos]
		for t := range pm.ringSum {
			pm.ringSum[t] -= old[t]
		}
	} else {
		pm.ringN++
	}
	pm.ring[pm.ringPos] = d
	pm.ringPos++
	if pm.ringPos == pm.depth {
		pm.ringPos = 0
	}
	pm.lastDemand = d
	for t := range pm.ringSum {
		pm.ringSum[t] += d[t]
		pm.ewma[t] += (d[t]<<fpShift - pm.ewma[t]) >> ewmaShift
	}

	// Phase detection: the short-horizon ring average drifting away
	// from the long-horizon EWMA marks a phase boundary. Hysteresis
	// (release at half the threshold) keeps one boundary from firing
	// repeatedly while the EWMA catches up.
	dist := 0
	shift := -1
	if pm.ringN == pm.depth {
		shift = pm.depthShift
	}
	for t := range pm.ringSum {
		var short int
		if shift >= 0 {
			// ringSum is non-negative, so the shift equals the divide.
			short = (pm.ringSum[t] << fpShift) >> shift
		} else {
			short = (pm.ringSum[t] << fpShift) / pm.ringN
		}
		dd := short - pm.ewma[t]
		if dd < 0 {
			dd = -dd
		}
		dist += dd
	}
	switch {
	case dist >= phaseThreshFP:
		pm.inShift = true
		// A real phase boundary moves the demand's dominant class; a
		// detector refire on in-phase noise does not. Rejecting
		// same-class fires keeps blips from polluting the phase-length
		// estimate and resetting the anticipation clock. The check runs
		// every cycle the shift lasts, not just at its rising edge: when
		// the threshold trips the ring is still dominated by the dying
		// phase, and the new class only takes over some cycles later.
		if dom := pm.dominantClass(); dom != pm.phaseDom {
			pm.phaseDom = dom
			pm.phaseChange()
		}
	case pm.inShift && dist < phaseThreshFP/2:
		pm.inShift = false
	}
}

// dominantClass classifies the short-horizon demand into the class of
// its heaviest need — integer (IntALU+IntMDU), memory (LSU) or floating
// point (FPALU+FPMDU), mirroring the three basis configurations.
// Summing per class keeps in-phase flapping between two same-class
// types (FPALU vs FPMDU, say) from looking like a phase change.
func (pm *Manager) dominantClass() int {
	classes := [3]int{
		pm.ringSum[arch.IntALU] + pm.ringSum[arch.IntMDU],
		pm.ringSum[arch.LSU],
		pm.ringSum[arch.FPALU] + pm.ringSum[arch.FPMDU],
	}
	dom, best := 0, -1
	for c, v := range classes {
		if v > best {
			dom, best = c, v
		}
	}
	return dom
}

// phaseChange handles one accepted demand-shift detection: count it,
// log the event, tick the boundary clock, and resolve the active
// speculation. The boundary the speculation targeted has arrived: if
// the fabric is (nearly) converted the prediction did its job — the
// reactive selector will score the prefetched layout as the "current"
// configuration and never name it, so this is the only confirm path a
// fully successful speculation has.
func (pm *Manager) phaseChange() {
	pm.m.NotePrefetch(0, 0, 0, 0, 0, 1)
	if s := pm.fabric.Sink(); s != nil {
		s.PrefetchPhase()
	}
	pm.boundary()
	if !pm.specActive {
		return
	}
	// Only a (nearly) converted fabric confirms here; a partial
	// speculation stays open for the reactive switch that is about to
	// settle and resolve it — the detector usually fires first, and
	// cancelling now would mis-charge spans the shift is about to use.
	target := pm.m.Basis()[pm.specTarget-1]
	if pm.fabric.Allocation().Distance(target) <= 2 {
		pm.resolveSpec(obs.OutcomeConfirm)
	}
}

// boundary ticks the phase-boundary clock from either boundary signal —
// a reactive basis switch or an accepted demand-shift detection. The
// refractory window deduplicates the two signals (and transient
// mid-shift switches) announcing the same boundary, which would
// otherwise drag the phase-length estimate far below the workload's
// real period.
func (pm *Manager) boundary() {
	length := pm.cycle - pm.lastChange
	refractory := 2 * settleCycles
	if pm.phaseSeen && pm.phaseLen/4 > refractory {
		refractory = pm.phaseLen / 4
	}
	if length < refractory {
		// Too soon to be a distinct boundary — either the second signal
		// for the boundary just ticked, or startup noise (the very first
		// configuration load announces itself as a "boundary" a handful
		// of cycles in; seeding the phase-length estimate with it would
		// leave the anticipation window wide open for the whole ramp-up).
		return
	}
	pm.lastChange = pm.cycle
	pm.phaseCount++
	pm.specOpens = 0
	if !pm.phaseSeen {
		pm.phaseLen = length
		pm.phaseSeen = true
	} else {
		pm.phaseLen += (length - pm.phaseLen) / 4
	}
}

// transition learns from the reactive selection pass: track the basis
// the selector names, and once a new basis has been held settleCycles,
// record the settled transition in the Markov table, resolve the active
// speculation against it, and tick the boundary clock.
func (pm *Manager) transition(sel *core.Selection) {
	if !sel.Current() && sel.Choice != pm.curBasis {
		pm.curBasis = sel.Choice
		pm.heldSince = pm.cycle
	}
	// Sample the phase-entry demand profile while the entry flood lasts:
	// from the switch until the new configuration's units have had one
	// reconfiguration latency to come online and start draining it.
	if pm.curBasis != 0 && pm.cycle-pm.heldSince < settleCycles+pm.fabric.ReconfigLatency() {
		for t := range pm.lastDemand {
			pm.profile[pm.curBasis][t] += (pm.lastDemand[t]<<fpShift - pm.profile[pm.curBasis][t]) >> entryShift
		}
		pm.profileSeen[pm.curBasis] = true
	}
	if pm.curBasis != pm.settledBasis && pm.cycle-pm.heldSince >= settleCycles {
		pm.markov[pm.settledBasis][pm.curBasis]++
		if pm.specActive {
			if pm.curBasis == pm.specTarget {
				// The reactive path settled on exactly what the
				// prefetcher already loaded (or started loading).
				pm.resolveSpec(obs.OutcomeConfirm)
			} else {
				pm.resolveSpec(obs.OutcomeMispredict)
			}
		}
		if pm.settledBasis != 0 {
			dur := pm.cycle - pm.lastSettle
			if pm.basisLenSeen[pm.settledBasis] {
				pm.basisLen[pm.settledBasis] += (dur - pm.basisLen[pm.settledBasis]) / 4
			} else {
				pm.basisLen[pm.settledBasis] = dur
				pm.basisLenSeen[pm.settledBasis] = true
			}
		}
		pm.lastSettle = pm.cycle
		pm.settledBasis = pm.curBasis
		pm.boundary()
	}
	if pm.specActive && pm.specSpans > 0 {
		// Live mispredict evidence: the hold is suppressing loads toward
		// a configuration the reactive selector keeps asking for. Only a
		// speculation that issued spans holds anything; an empty one
		// suppresses nothing and waits for the boundary on its own.
		if !sel.Current() && sel.Choice != pm.specTarget {
			pm.specHeldStreak++
		} else {
			pm.specHeldStreak = 0
		}
		// The higher the reconfiguration latency, the more a premature
		// release costs (restoring the spans pays the full latency
		// again), so the hold gets proportionally more patience before
		// the streak is ruled a mispredict.
		if pm.specHeldStreak >= settleCycles+pm.fabric.ReconfigLatency()/2 {
			pm.resolveSpec(obs.OutcomeMispredict)
		}
	}
	if pm.specActive && pm.cycle-pm.specStart > pm.specTTL() {
		pm.resolveSpec(obs.OutcomeCancel)
	}
}

// specTTL bounds how long a speculation may stay open.
func (pm *Manager) specTTL() int {
	if pm.phaseSeen && pm.phaseLen > 0 {
		return 2 * pm.phaseLen
	}
	return specTTLFallback
}

// resolveSpec closes the active speculation with the given outcome,
// charging wasted bus spans for mispredictions and cancels.
func (pm *Manager) resolveSpec(outcome string) {
	confirmed, mispredicted, cancelled, wasted := 0, 0, 0, 0
	switch outcome {
	case obs.OutcomeConfirm:
		confirmed = 1
	case obs.OutcomeMispredict:
		mispredicted = 1
		wasted = pm.specSpans
	case obs.OutcomeCancel:
		cancelled = 1
		wasted = pm.specSpans
	}
	pm.m.NotePrefetch(0, confirmed, mispredicted, cancelled, wasted, 0)
	if s := pm.fabric.Sink(); s != nil {
		s.PrefetchResolve(outcome, pm.specEvent(pm.specSpans))
	}
	pm.specActive = false
	pm.specSpans = 0
	pm.m.HoldTarget = 0
}

// specEvent describes the active speculation for the observer.
func (pm *Manager) specEvent(spans int) obs.Prefetch {
	return obs.Prefetch{Config: pm.m.Basis()[pm.specTarget-1].Name, Spans: spans, ConfidencePct: pm.specConfPct}
}

// speculate opens a new speculation when the predictor is confident and
// the timing is right, and pushes the active speculation's remaining
// spans through whatever configuration-bus bandwidth demand steering
// and fault repairs left unused this cycle.
func (pm *Manager) speculate(sel *core.Selection) {
	if !pm.specActive {
		// Only speculate from a steady reactive state: while the
		// reactive loader is mid-transition the bus belongs to demand.
		// And only ahead of the predicted boundary — once a shift is
		// underway the reactive selector reacts faster than the phase
		// detector, so boundary-time speculation would just steal bus
		// spans from demand loads.
		if !sel.Current() || pm.inShift || pm.specOpens >= maxSpecOpens || !pm.anticipating() {
			return
		}
		next, confPct, ok := pm.predict()
		if !ok {
			return
		}
		pm.specActive = true
		pm.specTarget = next
		pm.specStart = pm.cycle
		pm.specConfPct = confPct
		pm.specSpans = 0
		pm.specHeldStreak = 0
		pm.specOpens++
		pm.specIssued = [arch.NumRFUSlots]bool{}
		if s := pm.fabric.Sink(); s != nil {
			s.PrefetchOpen(pm.specEvent(0))
		}
	}
	pm.issueSpans()
}

// predict consults the Markov row of the settled basis configuration
// and returns the most likely successor with its confidence (percent),
// or ok=false when the row is too thin or too flat to trust.
func (pm *Manager) predict() (next, confPct int, ok bool) {
	row := pm.markov[pm.settledBasis]
	total, best, bestN := 0, 0, 0
	for to := 1; to < arch.NumConfigs; to++ {
		n := row[to]
		total += n
		if n > bestN {
			best, bestN = to, n
		}
	}
	if total < minTransitions || best == 0 || best == pm.settledBasis {
		return 0, 0, false
	}
	confPct = bestN * 100 / total
	if confPct < pm.confPct {
		return 0, 0, false
	}
	return best, confPct, true
}

// anticipating reports whether the predicted next phase boundary is
// close enough to start loading early. Anticipation only pays when the
// reconfiguration latency is non-trivial relative to the phase length —
// on a fast fabric the reactive path already switches cheaply, and
// converting early would just invite thrash. When it does pay, loads
// start just in time — one reconfiguration latency plus a small slack
// before the predicted boundary, never earlier than mid-phase — so the
// pre-boundary capacity dip lasts barely longer than the span freeze
// the conversion costs anyway, while the converted units come online
// right as the next phase's queue starts blocking on them.
func (pm *Manager) anticipating() bool {
	// Demand at least a few accepted boundaries first: the phase-length
	// estimate is an EWMA, and anticipating off a half-converged value
	// opens speculations mid-phase, where they only cost capacity.
	if pm.phaseCount < 3 || pm.phaseLen <= 0 {
		return false
	}
	expect := pm.expectedLen()
	lat := pm.fabric.ReconfigLatency()
	if lat*16 < expect {
		return false
	}
	start := expect - (lat + 4)
	if start < expect/2 {
		start = expect / 2
	}
	return pm.cycle-pm.lastChange >= start
}

// expectedLen is the predicted length of the current phase: the settled
// basis's own phase-length history when available (phases of different
// mixes run at different IPC, so their lengths differ systematically),
// otherwise the global estimate.
func (pm *Manager) expectedLen() int {
	if pm.basisLenSeen[pm.settledBasis] {
		return pm.basisLen[pm.settledBasis]
	}
	return pm.phaseLen
}

// issueSpans rewrites the speculation target's differing spans onto
// idle RFU slots, one CanReconfigure-gated span at a time, so prefetch
// traffic only ever takes configuration-bus spans that demand steering
// and fault repair left unused. Each slot is attempted at most once per
// speculation.
func (pm *Manager) issueSpans() {
	target := pm.m.Basis()[pm.specTarget-1]
	avail := pm.fabric.EffectiveTotalCounts()
	demand := pm.ceilDemand()
	next, nextSeen := pm.predictedDemand()
	issued := 0
	pm.unitsScratch = target.AppendUnits(pm.unitsScratch[:0])
	for _, u := range pm.unitsScratch {
		if pm.specIssued[u.Slot] {
			continue // already attempted under this speculation
		}
		if pm.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue // already implements the unit
		}
		if nextSeen && avail[u.Type] >= next[u.Type] {
			// Value gate: the next phase is not predicted to need more
			// units of this type than the fabric already has, so the
			// rewrite would pay its capacity cost for nothing. The
			// reactive switch will pick the span up at the boundary if
			// the profile is wrong.
			continue
		}
		if !pm.fabric.CanReconfigure(u.Type, u.Slot) {
			continue // span busy, unhealthy, or the bus is full
		}
		if !pm.spanAffordable(u, &avail, demand) {
			continue
		}
		if pm.fabric.Reconfigure(u.Type, u.Slot) {
			issued++
			pm.specSpans++
			pm.specIssued[u.Slot] = true
			// Commit: with real spans converted, hold the configuration
			// against reactive claw-back until the speculation resolves.
			// Like a branch predictor overriding sequential fetch, the
			// commitment is what makes anticipation possible at all —
			// without it the reactive selector reverts every span whose
			// loss it can score, and each revert freezes the span for a
			// full reconfiguration latency. An empty speculation commits
			// nothing: there is nothing to protect, so demand steering
			// stays fully in charge.
			pm.m.HoldTarget = pm.specTarget
		}
	}
	if issued > 0 {
		pm.m.NotePrefetch(issued, 0, 0, 0, 0, 0)
		if s := pm.fabric.Sink(); s != nil {
			s.PrefetchIssue(pm.specEvent(issued))
		}
	}
}

// spanAffordable reports whether overwriting the span of u is an
// acceptable anticipation cost, and debits avail for the destroyed
// units when it is. The gate uses exact capacity arithmetic — the
// barrel-shifter approximation is too coarse to price it (3 units
// serving demand 3 scores error 1 despite losing nothing) — and allows
// a bounded shortfall of specShortfall unit below the short-horizon
// demand ceiling per type: anticipation trades a small, brief capacity
// dip in the dying phase for post-boundary capacity in the next one,
// when the queue would otherwise block head-of-line on the missing
// units for a full reconfiguration latency.
func (pm *Manager) spanAffordable(u config.PlacedUnit, avail *arch.Counts, demand arch.Counts) bool {
	lo, hi := u.Slot, u.Slot+u.Span
	var lost arch.Counts
	pm.liveScratch = config.Configuration{Layout: pm.fabric.Allocation().Slots}.AppendUnits(pm.liveScratch[:0])
	for _, live := range pm.liveScratch {
		if live.Slot < hi && live.Slot+live.Span > lo {
			lost[live.Type]++
		}
	}
	for t, n := range lost {
		if n > 0 && avail[t]-n < demand[t]-specShortfall {
			return false
		}
	}
	for t, n := range lost {
		avail[t] -= n
	}
	avail[u.Type]++
	return true
}

// predictedDemand returns the demand profile of the speculation
// target's phase, rounded up — the predictor's estimate of what the
// next phase will need. seen is false until the target basis has been
// settled in at least once.
func (pm *Manager) predictedDemand() (d arch.Counts, seen bool) {
	if !pm.profileSeen[pm.specTarget] {
		return d, false
	}
	for t := range d {
		d[t] = (pm.profile[pm.specTarget][t] + (1 << fpShift) - 1) >> fpShift
	}
	return d, true
}

// ceilDemand returns the ring's per-type demand average rounded up —
// the demand floor the affordability gate protects.
func (pm *Manager) ceilDemand() arch.Counts {
	var d arch.Counts
	if pm.ringN == 0 {
		return d
	}
	for t := range d {
		v := (pm.ringSum[t] + pm.ringN - 1) / pm.ringN
		if v > 7 {
			v = 7
		}
		d[t] = v
	}
	return d
}
