// Package cluster lifts the simulator from one processor to K cores
// sharing the eight-slot reconfigurable fabric and the configuration
// bus — the merge/split cluster organisation of Spatzformer
// (arXiv:2407.05447) applied to the paper's steering architecture.
//
// Each core is a full repro.Machine (its own window, front end, memory
// and steering manager); the cluster layer arbitrates their
// reconfiguration traffic:
//
//   - In merged mode the cores gang-share one wide configuration. Core
//     0 owns the physical fabric; its steering manager serves the
//     cross-core combined demand the arbiter policy selects, and the
//     remaining cores execute on configuration mirrors of core 0's
//     fabric (private execution ports, shared layout — the Spatzformer
//     reading, where the merged cluster acts as one wide machine).
//   - In split mode the eight slots partition into contiguous private
//     sub-fabrics via per-slot ownership leases. A slot leased to core
//     A is health-masked out of core B's availability — the PR 4
//     degraded-mode masks reused as the lease mechanism — so each
//     core's steering manager sees only its own sub-fabric, and the
//     per-core fault injectors each own exactly their partition.
//
// All reconfiguration still flows through one configuration bus: in
// split mode every fabric's bus-capacity check adds the sibling
// fabrics' active spans, so repairs > demand > prefetch priority
// extends across cores, ordered by the arbiter (round-robin rotation
// or demand-weighted) each cycle.
//
// Modes are switchable at phase boundaries: a requested switch applies
// at the first cycle where every fabric is quiescent (no execution on
// RFU slots, no reconfiguration in flight), so configurations never
// change under an executing span.
//
// K=1 is bit-identical to the scalar repro.Machine — every hook
// degenerates to a no-op — which TestClusterK1MatchesScalar pins.
package cluster

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/rfu"
	"repro/internal/span"
)

// MaxCores bounds the cluster width (eight cores over eight slots is
// one slot per core in split mode). It equals cpu.MaxClusterCores so
// Params.Validate and the cluster agree.
const MaxCores = cpu.MaxClusterCores

// allSlots is the packed mask of the whole reconfigurable fabric.
const allSlots = uint8(1<<arch.NumRFUSlots - 1)

// Mode selects how the cores share the reconfigurable fabric.
type Mode int

const (
	// ModeMerged gang-shares one wide configuration steered by core 0
	// against the arbiter-combined demand of every core.
	ModeMerged Mode = iota
	// ModeSplit partitions the slots into private per-core sub-fabrics
	// through ownership leases.
	ModeSplit
)

var modeNames = [...]string{ModeMerged: "merged", ModeSplit: "split"}

// String returns the canonical mode name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode resolves a mode name; the empty string selects ModeMerged
// (the default, matching cpu.Params.ClusterMode semantics).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "merged":
		return ModeMerged, nil
	case "split":
		return ModeSplit, nil
	}
	return 0, fmt.Errorf("cluster: unknown mode %q (known: merged, split)", s)
}

// Arbiter selects the cross-core arbitration policy ordering fabric
// access each cycle.
type Arbiter int

const (
	// ArbiterRoundRobin rotates priority by one core each cycle: in
	// merged mode the master steers toward the rotating core's demand,
	// in split mode the stepping (and thus bus) order rotates.
	ArbiterRoundRobin Arbiter = iota
	// ArbiterDemandWeighted orders by unit demand: merged-mode steering
	// serves the element-wise demand sum, split-mode stepping order
	// puts the hungriest core first.
	ArbiterDemandWeighted
)

var arbiterNames = [...]string{ArbiterRoundRobin: "round-robin", ArbiterDemandWeighted: "demand-weighted"}

// String returns the canonical arbiter name.
func (a Arbiter) String() string {
	if a < 0 || int(a) >= len(arbiterNames) {
		return fmt.Sprintf("Arbiter(%d)", int(a))
	}
	return arbiterNames[a]
}

// ParseArbiter resolves an arbiter name; the empty string selects
// ArbiterRoundRobin (the default).
func ParseArbiter(s string) (Arbiter, error) {
	switch s {
	case "", "round-robin":
		return ArbiterRoundRobin, nil
	case "demand-weighted":
		return ArbiterDemandWeighted, nil
	}
	return 0, fmt.Errorf("cluster: unknown arbiter %q (known: round-robin, demand-weighted)", s)
}

// Machine steps K cores in lockstep against the shared fabric.
type Machine struct {
	cores   []*repro.Machine
	procs   []*cpu.Processor
	fabrics []*rfu.Fabric

	mode    Mode
	pending Mode
	arb     Arbiter

	// lease holds each core's owned-slot mask: the full fabric for the
	// master in merged mode, the private partition in split mode.
	lease [MaxCores]uint8

	cycle        int
	switchEvery  int
	modeSwitches int

	// demand caches each core's latest manager-input vector (recorded
	// by the manage hook); the arbiter reads it for demand-weighted
	// ordering and merged-mode demand combining.
	demand [MaxCores]arch.Counts
	order  [MaxCores]int // split-mode stepping order scratch

	spans [MaxCores]*span.Recorder
}

// New builds a cluster of opt.Params.Cores cores (minimum 1), each
// running its own copy of prog. Mode and arbiter come from
// opt.Params.ClusterMode / ClusterArbiter; invalid values panic, so
// validate request-supplied parameters with Params.Validate first.
func New(prog repro.Program, opt repro.Options) *Machine {
	k := opt.Params.Cores
	if k < 1 {
		k = 1
	}
	progs := make([]repro.Program, k)
	for i := range progs {
		progs[i] = prog
	}
	return NewMulti(progs, opt)
}

// NewMulti is New with one program per core (heterogeneous workloads);
// the core count is len(progs), which must agree with opt.Params.Cores
// when that is set.
func NewMulti(progs []repro.Program, opt repro.Options) *Machine {
	k := len(progs)
	if k < 1 || k > MaxCores {
		panic(fmt.Sprintf("cluster: core count %d out of range [1, %d]", k, MaxCores))
	}
	if opt.Params.Cores > 1 && opt.Params.Cores != k {
		panic(fmt.Sprintf("cluster: %d programs for Params.Cores=%d", k, opt.Params.Cores))
	}
	mode, err := ParseMode(opt.Params.ClusterMode)
	if err != nil {
		panic(err)
	}
	arb, err := ParseArbiter(opt.Params.ClusterArbiter)
	if err != nil {
		panic(err)
	}
	c := &Machine{mode: mode, pending: mode, arb: arb}
	for i := 0; i < k; i++ {
		o := opt
		// Each core draws its own fault stream: in split mode the
		// injectors cover disjoint partitions (external-lease immunity
		// skips foreign slots after the draw, keeping every stream a
		// pure function of seed), in merged mode only the master's
		// machinery runs — mirrors pause their streams. Core 0 keeps
		// the caller's seed so K=1 reproduces the scalar run exactly.
		o.Params.FaultSeed = opt.Params.FaultSeed + int64(i)
		m := repro.NewMachine(progs[i], o)
		c.cores = append(c.cores, m)
		c.procs = append(c.procs, m.Processor())
		c.fabrics = append(c.fabrics, m.Processor().Fabric())
	}
	for i := range c.procs {
		i := i
		c.procs[i].SetManageHook(func(required arch.Counts) (arch.Counts, bool) {
			return c.manage(i, required)
		})
	}
	c.applyMode(mode)
	return c
}

// manage intercepts core i's demand vector on its way to the steering
// manager (installed as the cpu manage hook). Every core's latest
// demand is recorded for the arbiter; in split mode each core then
// steers its own partition, while in merged mode only the master
// steers — against the arbiter-combined cross-core demand.
func (c *Machine) manage(i int, required arch.Counts) (arch.Counts, bool) {
	c.demand[i] = required
	if c.mode == ModeSplit {
		return required, true
	}
	if i != 0 {
		return required, false // mirrors never steer the shared fabric
	}
	k := len(c.procs)
	switch c.arb {
	case ArbiterDemandWeighted:
		// Element-wise demand sum. No clamp: the selection unit's
		// packed key clamps to its 3-bit range itself, and for K=1 the
		// sum is the untouched scalar vector.
		sum := required
		for j := 1; j < k; j++ {
			sum = sum.Add(c.demand[j])
		}
		return sum, true
	default:
		// Round-robin: serve one core's demand per cycle. The master's
		// own vector is current; the others' are one cycle stale (they
		// step after the master).
		return c.demand[c.cycle%k], true
	}
}

// applyMode installs the fabric-sharing contract for mode m: mirror
// wiring and combined-demand steering for merged, leases and shared-bus
// accounting for split. Callers ensure every fabric is quiescent.
func (c *Machine) applyMode(m Mode) {
	k := len(c.procs)
	c.mode, c.pending = m, m
	c.lease = [MaxCores]uint8{}
	switch m {
	case ModeMerged:
		c.lease[0] = allSlots
		master := c.fabrics[0]
		master.SetExternalMasks(0, 0)
		master.SetExternalBusLoad(nil)
		// Repairs, salvage and steering rewrites on the shared fabric
		// wait for every core's in-flight execution to drain, not just
		// the master's.
		master.SetExternalSlotBusy(c.mirrorBusy)
		unavail, dead := master.HealthMasks()
		for j := 1; j < k; j++ {
			f := c.fabrics[j]
			f.SetMirror(true)
			f.SetExternalBusLoad(nil)
			f.SetExternalSlotBusy(nil)
			f.MirrorFrom(master)
			f.SetExternalMasks(unavail, dead)
		}
	case ModeSplit:
		// Contiguous partition: NumRFUSlots/K slots each, the first
		// NumRFUSlots%K cores one more. Foreign slots are leased out as
		// both unavailable and dead — the steering manager then treats
		// the missing capacity as permanent, exactly like retired
		// slots, and discounts basis units crossing the boundary.
		share, rem := arch.NumRFUSlots/k, arch.NumRFUSlots%k
		lo := 0
		for j := 0; j < k; j++ {
			n := share
			if j < rem {
				n++
			}
			mask := uint8((1<<n - 1) << lo)
			lo += n
			c.lease[j] = mask
			f := c.fabrics[j]
			f.SetMirror(false)
			f.SetExternalSlotBusy(nil)
			f.SetExternalBusLoad(c.busLoadExcept(j))
			foreign := allSlots &^ mask
			f.SetExternalMasks(foreign, foreign)
		}
	}
}

// mirrorBusy reports whether any non-master core is executing on slot
// s — the master fabric's external drain check in merged mode.
func (c *Machine) mirrorBusy(s int) bool {
	for j := 1; j < len(c.fabrics); j++ {
		if c.fabrics[j].SpanBusy(s) {
			return true
		}
	}
	return false
}

// busLoadExcept returns the shared-bus occupancy contributed by every
// fabric except core j's — split mode's cross-core bus extension.
func (c *Machine) busLoadExcept(j int) func() int {
	return func() int {
		n := 0
		for i := range c.fabrics {
			if i != j {
				n += c.fabrics[i].ActiveSpans()
			}
		}
		return n
	}
}

// RequestMode asks the cluster to switch fabric-sharing modes at the
// next phase boundary — the first cycle where every fabric is
// quiescent, so configurations never change under an executing span.
// Requesting the current mode cancels a pending switch.
func (c *Machine) RequestMode(m Mode) { c.pending = m }

// SetSwitchEvery toggles merged/split every n cluster cycles (0, the
// default, never auto-switches). Each toggle still waits for the next
// quiescent boundary, so the effective phase lengths stretch with
// fabric activity.
func (c *Machine) SetSwitchEvery(n int) {
	if n < 0 {
		panic("cluster: negative switch period")
	}
	c.switchEvery = n
}

// fabricsIdle reports whether every core's fabric is quiescent (no RFU
// execution, no reconfiguration in flight). FFUs may keep executing —
// they are never reconfigured or shared.
func (c *Machine) fabricsIdle() bool {
	for _, f := range c.fabrics {
		if !f.Idle() {
			return false
		}
	}
	return true
}

// Step advances the cluster one cycle: pending mode switches apply at
// quiescent boundaries, then the cores step in arbiter order — master
// first in merged mode (mirrors refresh from its post-cycle state), or
// the rotation/demand order in split mode, where earlier cores see
// less configuration-bus contention.
func (c *Machine) Step() {
	if c.switchEvery > 0 && c.cycle > 0 && c.cycle%c.switchEvery == 0 && c.pending == c.mode {
		if c.mode == ModeMerged {
			c.pending = ModeSplit
		} else {
			c.pending = ModeMerged
		}
	}
	if c.pending != c.mode && c.fabricsIdle() {
		c.applyMode(c.pending)
		c.modeSwitches++
	}
	c.cycle++
	if c.mode == ModeMerged {
		// Master first: mirrors then refresh from its post-cycle fabric
		// state, so a sibling can never acquire a span the master is
		// mid-rewrite on. A halted master freezes the shared layout;
		// still-running mirrors execute on the frozen configuration.
		if !c.procs[0].Halted() {
			c.procs[0].Cycle()
		}
		master := c.fabrics[0]
		unavail, dead := master.HealthMasks()
		for j := 1; j < len(c.procs); j++ {
			if c.procs[j].Halted() {
				continue
			}
			c.fabrics[j].MirrorFrom(master)
			c.fabrics[j].SetExternalMasks(unavail, dead)
			c.procs[j].Cycle()
		}
		return
	}
	n := c.stepOrder()
	for _, j := range c.order[:n] {
		if !c.procs[j].Halted() {
			c.procs[j].Cycle()
		}
	}
}

// stepOrder fills c.order with this cycle's split-mode stepping order
// and returns the core count. Allocation-free: fixed scratch plus an
// insertion sort over at most MaxCores entries.
func (c *Machine) stepOrder() int {
	k := len(c.procs)
	if c.arb == ArbiterRoundRobin {
		start := (c.cycle - 1) % k
		for i := 0; i < k; i++ {
			j := start + i
			if j >= k {
				j -= k
			}
			c.order[i] = j
		}
		return k
	}
	// Demand-weighted: descending total demand from the last recorded
	// vectors (uniformly one cycle stale), ties by core index.
	total := func(i int) int {
		t := 0
		for _, v := range c.demand[i] {
			t += v
		}
		return t
	}
	for i := 0; i < k; i++ {
		c.order[i] = i
	}
	for i := 1; i < k; i++ {
		v := c.order[i]
		tv := total(v)
		j := i - 1
		for j >= 0 && total(c.order[j]) < tv {
			c.order[j+1] = c.order[j]
			j--
		}
		c.order[j+1] = v
	}
	return k
}

// Halted reports whether every core's program has retired its HALT.
func (c *Machine) Halted() bool {
	for _, p := range c.procs {
		if !p.Halted() {
			return false
		}
	}
	return true
}

// Run executes until every core halts or maxCycles cluster cycles
// elapse; see RunContext.
func (c *Machine) Run(maxCycles int) (Stats, error) {
	return c.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cancellation, polled every
// cpu.CtxCheckInterval cluster cycles like the scalar machine. On
// budget exhaustion the error wraps cpu.ErrCycleLimit; the statistics
// so far are returned either way, and telemetry probes are flushed.
func (c *Machine) RunContext(ctx context.Context, maxCycles int) (Stats, error) {
	var err error
	for !c.Halted() && c.cycle < maxCycles {
		if err = ctx.Err(); err != nil {
			break
		}
		limit := c.cycle + cpu.CtxCheckInterval
		if limit > maxCycles {
			limit = maxCycles
		}
		for !c.Halted() && c.cycle < limit {
			c.Step()
		}
	}
	for i, m := range c.cores {
		if ferr := m.FlushTelemetry(); err == nil && ferr != nil {
			err = fmt.Errorf("telemetry (core %d): %w", i, ferr)
		}
	}
	if err == nil && !c.Halted() {
		err = fmt.Errorf("cluster: not all %d cores halted within %d cycles: %w",
			len(c.procs), maxCycles, cpu.ErrCycleLimit)
	}
	return c.Stats(), err
}

// Cores returns the cluster width.
func (c *Machine) Cores() int { return len(c.cores) }

// Core returns core k's machine, for per-core inspection (registers,
// reports, memory).
func (c *Machine) Core(k int) *repro.Machine { return c.cores[k] }

// Mode returns the current fabric-sharing mode.
func (c *Machine) Mode() Mode { return c.mode }

// ModeSwitches counts mode switches applied since construction.
func (c *Machine) ModeSwitches() int { return c.modeSwitches }

// Leases returns the per-core owned-slot masks: the whole fabric for
// the master in merged mode, the private partitions in split mode.
// Safety invariant (pinned by test): the masks are pairwise disjoint
// every cycle — no slot is ever leased to two cores.
func (c *Machine) Leases() []uint8 {
	out := make([]uint8, len(c.cores))
	copy(out, c.lease[:len(c.cores)])
	return out
}
