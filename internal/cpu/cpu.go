// Package cpu ties the substrates into the full processor of Fig. 1: a
// fetch unit with branch prediction and a trace cache feeds a register
// update unit (dispatch, dependency tracking, in-order retirement with a
// store buffer) whose scheduling window is the select-free wake-up array;
// execution units come from the reconfigurable fabric, and a pluggable
// configuration policy — the paper's steering manager, or one of the
// baselines — observes the queue each cycle and reconfigures idle RFUs.
//
// The simulator is cycle-level for timing and functionally exact for
// semantics: instructions execute through isa.Exec at issue, with operand
// forwarding from the in-flight window and store-to-load forwarding from
// the store buffer, so a run's architectural outcome is bit-identical to
// the functional reference interpreter.
package cpu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/fetch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rfu"
	"repro/internal/wakeup"
)

// Sentinel errors for run and construction failures, so callers (the
// rssd server in particular) can classify outcomes with errors.Is
// instead of string matching.
var (
	// ErrCycleLimit is wrapped by Run/RunContext when the cycle budget
	// elapses before the program's HALT retires.
	ErrCycleLimit = errors.New("cycle limit exceeded")
	// ErrInvalidParams is wrapped by Params.Validate failures.
	ErrInvalidParams = errors.New("invalid machine parameters")
)

// Params sizes the machine. Zero values select the defaults of
// DefaultParams.
type Params struct {
	WindowSize    int // wake-up array rows / in-flight instructions (7)
	DispatchWidth int // instructions dispatched per cycle (4)
	IssueWidth    int // instructions granted per cycle (4)
	RetireWidth   int // instructions retired per cycle (4)

	ReconfigLatency int // cycles to rewrite one RFU span (8)
	ConfigBusWidth  int // max spans reconfiguring at once; 0 = unlimited (Fig. 1 bus model)

	Latencies isa.Latencies

	MemBytes         int // data memory size, power of two up to 1<<32 (1 MiB)
	CacheSets        int // direct-mapped data cache sets (64)
	CacheLineBytes   int // cache line size (32)
	CacheMissPenalty int // extra cycles on a load miss (10)

	PredictorEntries  int  // predictor / BTB entries (256)
	GshareHistoryBits uint // >0 selects gshare indexing with this much history
	TraceCacheLines   int  // trace cache lines (64)
	TraceCacheLineLen int  // instructions per trace line (8)
	FetchWidthMem     int  // fetch width from instruction memory (2)
	FetchWidthTC      int  // fetch width on a trace cache hit (4)

	DisableFFUs bool // X4 ablation: hide the fixed functional units

	// IssueOrder selects which requesting instructions win issue slots:
	// OrderOldest (default, age priority), OrderYoungest, or
	// OrderRotate (rotating-priority arbiter) — the X15 scheduler
	// ablation.
	IssueOrder IssueOrder

	// ManagerLookahead feeds the configuration manager the unit demands
	// of fetched-but-not-yet-dispatched instructions in addition to the
	// scheduling window — the §2 reading of the architecture, where the
	// fetch unit's pre-decoders supply the manager directly. The default
	// (false) is the §3.1 reading: the manager sees only the
	// instruction queue.
	ManagerLookahead bool

	// SelectFree models the scheduling logic of the paper's reference
	// [9] (Brown/Stark/Patt) literally: requesters are granted without
	// a select stage, so when more instructions request a unit type
	// than units exist, the overflow "pileup" instructions burn their
	// issue slot and are rescheduled — they replay on a later cycle.
	// The default (false) is an idealised select stage that never
	// wastes slots on colliding requesters.
	SelectFree bool

	// FaultTransientRate and FaultPermanentRate enable the
	// configuration-upset model: each is a per-slot per-cycle
	// probability in [0,1] (their sum at most 1) of a transient or
	// permanent upset in that slot's configuration frames. Both zero
	// (the default) disables fault injection entirely — the fabric
	// then runs the exact pre-fault fast path.
	FaultTransientRate float64
	FaultPermanentRate float64
	// FaultSeed seeds the fault injector's private PRNG stream;
	// identical seeds and workloads reproduce identical upset
	// sequences bit-for-bit.
	FaultSeed int64
	// FaultScrubInterval is the cycle period of the readback scrub
	// that detects corrupt slots; 0 selects the default
	// (fault.DefaultScrubInterval).
	FaultScrubInterval int

	// PrefetchHistoryDepth sizes the demand-history ring of the
	// prefetch policy's predictor; 0 selects the default
	// (predict.DefaultHistoryDepth). Ignored by other policies.
	PrefetchHistoryDepth int
	// PrefetchConfidence is the Markov confidence threshold in (0,1]
	// the prefetch policy requires before issuing speculative loads; 0
	// selects the default (predict.DefaultConfidence).
	PrefetchConfidence float64

	// Cores lifts the machine to a K-core cluster sharing one fabric
	// and one configuration bus (internal/cluster). 0 and 1 both mean
	// the scalar machine; K=1 through the cluster layer is bit-identical
	// to it. At most cluster.MaxCores (8).
	Cores int
	// ClusterMode selects how cluster cores share the 8 RFU slots:
	// "merged" (the default) gang-shares one wide configuration steered
	// by core 0; "split" partitions the slots into private per-core
	// sub-fabrics via ownership leases. Ignored when Cores <= 1. The
	// names are parsed by cluster.ParseMode; cpu keeps them as strings
	// so it need not import the layer above it.
	ClusterMode string
	// ClusterArbiter selects the cross-core arbitration policy:
	// "round-robin" (the default) rotates priority each cycle;
	// "demand-weighted" orders cores by their current unit demand.
	// Ignored when Cores <= 1; parsed by cluster.ParseArbiter.
	ClusterArbiter string
}

// DefaultParams returns the reference machine of the experiments.
func DefaultParams() Params {
	return Params{
		WindowSize:        arch.QueueSize,
		DispatchWidth:     4,
		IssueWidth:        4,
		RetireWidth:       4,
		ReconfigLatency:   8,
		Latencies:         isa.DefaultLatencies(),
		MemBytes:          mem.DefaultSize,
		CacheSets:         64,
		CacheLineBytes:    32,
		CacheMissPenalty:  10,
		PredictorEntries:  256,
		TraceCacheLines:   64,
		TraceCacheLineLen: 8,
		FetchWidthMem:     2,
		FetchWidthTC:      4,
	}
}

// WithDefaults returns the parameter set with every zero field filled
// from DefaultParams — the exact resolution cpu.New applies before
// building a machine. Analytic consumers (internal/queue) use it so the
// model and the simulator agree on effective sizes.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero fields from DefaultParams.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.WindowSize == 0 {
		p.WindowSize = d.WindowSize
	}
	if p.DispatchWidth == 0 {
		p.DispatchWidth = d.DispatchWidth
	}
	if p.IssueWidth == 0 {
		p.IssueWidth = d.IssueWidth
	}
	if p.RetireWidth == 0 {
		p.RetireWidth = d.RetireWidth
	}
	// A zero ReconfigLatency selects the default; near-instant
	// reconfiguration is modelled with latency 1.
	if p.ReconfigLatency == 0 {
		p.ReconfigLatency = d.ReconfigLatency
	}
	if p.Latencies == (isa.Latencies{}) {
		p.Latencies = d.Latencies
	}
	if p.MemBytes == 0 {
		p.MemBytes = d.MemBytes
	}
	if p.CacheSets == 0 {
		p.CacheSets = d.CacheSets
	}
	if p.CacheLineBytes == 0 {
		p.CacheLineBytes = d.CacheLineBytes
	}
	if p.CacheMissPenalty == 0 {
		p.CacheMissPenalty = d.CacheMissPenalty
	}
	if p.PredictorEntries == 0 {
		p.PredictorEntries = d.PredictorEntries
	}
	if p.TraceCacheLines == 0 {
		p.TraceCacheLines = d.TraceCacheLines
	}
	if p.TraceCacheLineLen == 0 {
		p.TraceCacheLineLen = d.TraceCacheLineLen
	}
	if p.FetchWidthMem == 0 {
		p.FetchWidthMem = d.FetchWidthMem
	}
	if p.FetchWidthTC == 0 {
		p.FetchWidthTC = d.FetchWidthTC
	}
	return p
}

// Validate checks a parameter set before machine construction: every
// sizing field must be non-negative (zero selects the default), and the
// memory/cache geometries must be powers of two where the substrates
// require it, and every resolved execution latency must be at least one
// cycle. Errors wrap ErrInvalidParams; cpu.New panics on the same
// conditions, so servers validate request-supplied parameters here
// first and map the failure to a 4xx.
func (p Params) Validate() error {
	bad := func(field string, v int) error {
		return fmt.Errorf("%w: %s must be non-negative, got %d", ErrInvalidParams, field, v)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"WindowSize", p.WindowSize},
		{"DispatchWidth", p.DispatchWidth},
		{"IssueWidth", p.IssueWidth},
		{"RetireWidth", p.RetireWidth},
		{"ReconfigLatency", p.ReconfigLatency},
		{"ConfigBusWidth", p.ConfigBusWidth},
		{"MemBytes", p.MemBytes},
		{"CacheSets", p.CacheSets},
		{"CacheLineBytes", p.CacheLineBytes},
		{"CacheMissPenalty", p.CacheMissPenalty},
		{"PredictorEntries", p.PredictorEntries},
		{"TraceCacheLines", p.TraceCacheLines},
		{"TraceCacheLineLen", p.TraceCacheLineLen},
		{"FetchWidthMem", p.FetchWidthMem},
		{"FetchWidthTC", p.FetchWidthTC},
		{"PrefetchHistoryDepth", p.PrefetchHistoryDepth},
	} {
		if f.v < 0 {
			return bad(f.name, f.v)
		}
	}
	powerOfTwo := func(v int) bool { return v&(v-1) == 0 }
	// The substrates' own geometry predicates, over the sizes New builds.
	d := p.withDefaults()
	for _, err := range []error{
		mem.ValidSize(d.MemBytes),
		wakeup.ValidSize(d.WindowSize),
		fetch.ValidPredictorEntries(d.PredictorEntries),
		fetch.ValidTraceCache(d.TraceCacheLines, d.TraceCacheLineLen),
	} {
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
	}
	// Only an all-zero Latencies takes the defaults, so a partial table
	// leaves zero entries that dispatch would hand to the wake-up array.
	l := d.Latencies
	for _, f := range []struct {
		name string
		v    int
	}{
		{"IntALU", l.IntALU}, {"IntMul", l.IntMul}, {"IntDiv", l.IntDiv},
		{"Load", l.Load}, {"Store", l.Store}, {"FPALU", l.FPALU},
		{"FPMul", l.FPMul}, {"FPDiv", l.FPDiv}, {"FPSqrt", l.FPSqrt},
	} {
		if err := wakeup.ValidLatency(f.v); err != nil {
			return fmt.Errorf("%w: Latencies.%s: %v", ErrInvalidParams, f.name, err)
		}
	}
	if p.CacheLineBytes > 0 && !powerOfTwo(p.CacheLineBytes) {
		return fmt.Errorf("%w: CacheLineBytes %d is not a power of two", ErrInvalidParams, p.CacheLineBytes)
	}
	if p.IssueOrder < OrderOldest || p.IssueOrder > OrderRotate {
		return fmt.Errorf("%w: unknown issue order %d", ErrInvalidParams, int(p.IssueOrder))
	}
	if err := p.faultPlan().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	// A spec that enables fault injection must size the scrub loop
	// explicitly: without it the plan silently falls back to
	// fault.DefaultScrubInterval, and a negative value used to surface
	// only deep inside fault.Plan at run time. Reject both here so
	// request-supplied specs fail with a structured 4xx instead.
	if (p.FaultTransientRate > 0 || p.FaultPermanentRate > 0) && p.FaultScrubInterval <= 0 {
		return fmt.Errorf("%w: fault rates are set but FaultScrubInterval is %d (want > 0)",
			ErrInvalidParams, p.FaultScrubInterval)
	}
	// NaN fails this comparison too, which is the point.
	if !(p.PrefetchConfidence >= 0 && p.PrefetchConfidence <= 1) {
		return fmt.Errorf("%w: PrefetchConfidence must be in [0, 1], got %v", ErrInvalidParams, p.PrefetchConfidence)
	}
	if p.Cores < 0 || p.Cores > MaxClusterCores {
		return fmt.Errorf("%w: Cores must be in [0, %d], got %d", ErrInvalidParams, MaxClusterCores, p.Cores)
	}
	// The canonical name tables live in internal/cluster (which imports
	// this package); Validate pins the same spellings so request-supplied
	// specs fail here with a structured error.
	switch p.ClusterMode {
	case "", "merged", "split":
	default:
		return fmt.Errorf("%w: unknown cluster mode %q (want merged or split)", ErrInvalidParams, p.ClusterMode)
	}
	switch p.ClusterArbiter {
	case "", "round-robin", "demand-weighted":
	default:
		return fmt.Errorf("%w: unknown cluster arbiter %q (want round-robin or demand-weighted)", ErrInvalidParams, p.ClusterArbiter)
	}
	return nil
}

// MaxClusterCores bounds Params.Cores: eight cores over eight slots is
// already one slot per core in split mode, the point of diminishing
// fabric shares.
const MaxClusterCores = 8

// faultPlan assembles the fault-injection plan from the parameter set.
func (p Params) faultPlan() fault.Plan {
	return fault.Plan{
		Seed:          p.FaultSeed,
		TransientRate: p.FaultTransientRate,
		PermanentRate: p.FaultPermanentRate,
		ScrubInterval: p.FaultScrubInterval,
	}
}

// IssueOrder names a scheduler grant-priority policy.
type IssueOrder int

const (
	// OrderOldest grants the oldest requesters first (the default).
	OrderOldest IssueOrder = iota
	// OrderYoungest grants the youngest requesters first.
	OrderYoungest
	// OrderRotate grants round-robin: the starting priority position
	// rotates by one each cycle, as in rotating-priority arbiters.
	OrderRotate
)

// newPredictor builds the configured branch predictor.
func newPredictor(params Params) *fetch.Predictor {
	if params.GshareHistoryBits > 0 {
		return fetch.NewGsharePredictor(params.PredictorEntries, params.GshareHistoryBits)
	}
	return fetch.NewPredictor(params.PredictorEntries)
}

// robEntry is one register-update-unit entry. The RUU doubles as reorder
// buffer and store buffer; its rows map one-to-one onto wake-up array
// rows. Fields are grouped by size so the entry packs without padding
// holes (TestROBEntrySize pins its size).
type robEntry struct {
	seq       uint64
	row       int // wake-up array row
	storeSize int
	inst      isa.Inst

	pc         uint32
	predNext   uint32
	value      uint32
	storeAddr  uint32
	storeVal   uint32
	actualNext uint32
	latency    int32 // execution latency, resolved at dispatch

	// src holds the RUU slot of the youngest older producer of Rs1 and
	// Rs2 at dispatch, or -1 for the register file (see execute).
	src [2]int8

	valid     bool
	predTaken bool
	issued    bool
	executed  bool
	hasDest   bool
	dest      uint8
	isStore   bool
	halts     bool
}

// Stats accumulates machine activity over a run.
type Stats struct {
	Cycles  int
	Retired int
	Flushed int // instructions squashed by misprediction recovery

	Mispredicts      int
	BranchesResolved int

	IssuedByType arch.Counts // instructions granted, per unit type

	DispatchStallFull int // dispatch attempts blocked by a full window
	IssueContention   int // requests unserved because units ran out
	Pileups           int // select-free mode: grants rescheduled on unit collision

	// Per-cycle bottleneck classification: every simulated cycle falls
	// into exactly one bucket.
	CyclesIssued   int // at least one instruction was granted
	CyclesFrontend int // window empty: waiting on fetch/dispatch
	CyclesUnits    int // ready instructions existed but no unit of their type was free
	CyclesDeps     int // in-flight work only waiting on results (or draining)

	Halted bool // the program retired its HALT
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Processor is one simulated machine instance bound to a program.
type Processor struct {
	params Params
	prog   isa.Program

	memory  *mem.Memory
	dcache  *mem.Cache
	front   *fetch.Unit
	pred    *fetch.Predictor
	tcache  *fetch.TraceCache
	fabric  *rfu.Fabric
	array   *wakeup.Array
	manager Manager

	reg    [isa.NumRegs]uint32
	halted bool

	rob   []robEntry
	head  int
	count int
	seq   uint64

	// regProducer maps each register to the RUU slot of its youngest
	// in-flight producer, or -1.
	regProducer [isa.NumRegs]int

	// fetchBuf is the decoded-instruction buffer between fetch and
	// dispatch. Entries are consumed by advancing fetchHead (not by
	// re-slicing, which would strand capacity and force the append in
	// fill to reallocate); fill compacts the consumed prefix away before
	// topping up, so the buffer's backing array is allocated once.
	fetchBuf  []fetchedEntry
	fetchHead int

	// sink observes the pipeline; SetSink hands it to the fabric too.
	sink obs.Sink

	// manageHook, when set, intercepts the demand vector on its way to
	// the manager: the cluster layer uses it to substitute cross-core
	// combined demand (merged mode) or to suppress steering on cores
	// that do not own the fabric. Returning proceed=false skips Manage
	// this cycle.
	manageHook func(required arch.Counts) (arch.Counts, bool)

	// Per-cycle scratch reused across cycles so the steady-state loop
	// does not allocate: execShim is the speculative-memory adapter
	// execute hands to isa.Exec (heap-resident so the interface value
	// needs no boxing), depsScratch backs collectDeps' row list (the
	// wake-up array copies it at Allocate), fetchScratch receives the
	// front end's fetch group.
	execShim     execMem
	depsScratch  []int
	fetchScratch []fetch.Fetched

	// settle describes the last cycle when it changed no pipeline state:
	// nothing retired, no request line was raised, dispatch stalled on a
	// full window before dispatching anything, and the fetch buffer was
	// too full to fill. Until a result line rises or steering makes a
	// unit type available that was not available then, every later
	// cycle repeats it exactly (see Cycle).
	settle struct {
		ok       bool
		avail    uint8       // the fabric's AvailableSet at its issue
		required arch.Counts // the demand vector it fed the manager hook
		bucket   *int        // the bottleneck counter it incremented
	}

	stats Stats
}

// fetchedEntry pairs a fetched instruction with the cycle it left the
// front end, for the observer's dispatch event.
type fetchedEntry struct {
	f     fetch.Fetched
	cycle int
}

// New builds a processor for prog with the given parameters and
// configuration manager (nil for a static machine). The fabric starts
// empty: only the FFUs exist until a manager loads RFU configurations;
// use Fabric().Install to preset a static machine.
func New(prog isa.Program, params Params, manager Manager) *Processor {
	params = params.withDefaults()
	p := &Processor{
		params:  params,
		prog:    prog,
		memory:  mem.NewMemory(params.MemBytes),
		dcache:  mem.NewCache(params.CacheSets, params.CacheLineBytes, params.CacheMissPenalty),
		pred:    newPredictor(params),
		tcache:  fetch.NewTraceCache(params.TraceCacheLines, params.TraceCacheLineLen),
		fabric:  rfu.New(params.ReconfigLatency),
		array:   wakeup.New(params.WindowSize),
		manager: manager,
		rob:     make([]robEntry, params.WindowSize),
	}
	p.execShim.p = p
	p.depsScratch = make([]int, 0, params.WindowSize)
	p.front = fetch.NewUnit(prog, p.pred, p.tcache)
	p.front.MemWidth = params.FetchWidthMem
	p.front.TCWidth = params.FetchWidthTC
	if params.DisableFFUs {
		p.fabric.SetFFUsEnabled(false)
	}
	p.fabric.SetConfigBusWidth(params.ConfigBusWidth)
	if plan := params.faultPlan(); plan.Enabled() {
		p.fabric.EnableFaults(plan)
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	return p
}

// Fabric exposes the execution fabric (for policies, presets and stats).
func (p *Processor) Fabric() *rfu.Fabric { return p.fabric }

// SetManager installs the configuration manager. Managers usually need
// the fabric, which exists only after New, so the common pattern is:
//
//	p := cpu.New(prog, params, nil)
//	p.SetManager(baseline.NewSteeringBasis(p.Fabric(), config.DefaultBasis()))
//
// repro.NewMachine does this for every Policy.
func (p *Processor) SetManager(manager Manager) { p.manager = manager }

// Manager returns the installed configuration manager, or nil.
func (p *Processor) Manager() Manager { return p.manager }

// SetManageHook installs an interceptor on the demand vector fed to the
// configuration manager each cycle (nil disables, the default). The
// hook may rewrite the demand — the cluster layer injects cross-core
// combined demand on the fabric-owning core — or return false to skip
// the manager entirely this cycle (cores that do not own the shared
// fabric in merged mode). The manager itself is unaware of the cluster.
func (p *Processor) SetManageHook(hook func(required arch.Counts) (arch.Counts, bool)) {
	p.manageHook = hook
}

// SetSink installs the machine's observer (nil detaches it). The
// processor reports pipeline events to it and hands it to the fabric,
// through which the configuration policy reports too — one call reaches
// every hook site. Observers are pure: runs are bit-identical with a
// sink attached or not. Attach several with obs.Join.
func (p *Processor) SetSink(s obs.Sink) {
	p.sink = s
	p.fabric.SetSink(s)
}

// Sink returns the installed observer, or nil.
func (p *Processor) Sink() obs.Sink { return p.sink }

// Snapshot reads the machine state a sampling observer records at its
// sampling boundary (obs.Source). Called only on boundaries, so its
// cost is off the per-cycle hot path.
func (p *Processor) Snapshot() obs.State {
	rfuBusy, rfuUnits, ffuBusy := p.fabric.UnitStates()
	return obs.State{
		Cycle:         p.stats.Cycles,
		Retired:       p.stats.Retired,
		Occupancy:     p.count,
		Demand:        p.array.RequiredCounts(),
		RFUUnits:      rfuUnits,
		RFUBusy:       rfuBusy,
		FFUBusy:       ffuBusy,
		Slots:         p.fabric.Allocation().Slots,
		ReconfigSlots: p.fabric.ReconfiguringSlots(),
		MaskedSlots:   p.fabric.MaskedSlots(),
		Buckets: [4]int{p.stats.CyclesIssued, p.stats.CyclesUnits,
			p.stats.CyclesDeps, p.stats.CyclesFrontend},
	}
}

// Memory exposes the data memory for input/output setup.
func (p *Processor) Memory() *mem.Memory { return p.memory }

// DCache exposes the data cache statistics.
func (p *Processor) DCache() *mem.Cache { return p.dcache }

// Predictor exposes the branch predictor statistics.
func (p *Processor) Predictor() *fetch.Predictor { return p.pred }

// TraceCache exposes the trace cache statistics.
func (p *Processor) TraceCache() *fetch.TraceCache { return p.tcache }

// FetchUnit exposes the fetch unit statistics.
func (p *Processor) FetchUnit() *fetch.Unit { return p.front }

// Window exposes the wake-up array (read-only use intended).
func (p *Processor) Window() *wakeup.Array { return p.array }

// Reg returns architectural register r (unified index).
func (p *Processor) Reg(r uint8) uint32 {
	if r == isa.RegZero {
		return 0
	}
	return p.reg[r]
}

// SetReg presets architectural register r before a run.
func (p *Processor) SetReg(r uint8, v uint32) {
	if r != isa.RegZero {
		p.reg[r] = v
	}
}

// Halted reports whether the program's HALT has retired.
func (p *Processor) Halted() bool { return p.halted }

// Stats returns a copy of the run statistics so far.
func (p *Processor) Stats() Stats {
	s := p.stats
	s.Halted = p.halted
	return s
}

// slotAt returns the ROB slot holding the i-th oldest in-flight
// instruction. i is always < len(rob), so the wrap is a single
// conditional subtract rather than a hardware divide.
func (p *Processor) slotAt(i int) int {
	s := p.head + i
	if s >= len(p.rob) {
		s -= len(p.rob)
	}
	return s
}

// Cycle advances the machine one clock: timers tick, the oldest complete
// instructions retire, the configuration policy observes the queue and
// steers the fabric, ready instructions issue and execute, decoded
// instructions dispatch into the window, and the front end fetches.
//
// A cycle that follows a settled cycle (see Processor.settle) with no
// result line rising is itself settled up to steering: retire has
// nothing to retire and the demand vector is unchanged, so only the
// manager runs. If the fabric then offers no unit type the settled cycle
// lacked, no row can request, dispatch stalls on the same full window
// and fill finds the same full buffer, so the cycle replays the settled
// cycle's bucket and dispatch stall instead of re-evaluating them.
// Timers, the fabric and the manager still step every cycle, so fault
// draws, predictor state and every observer event are unchanged.
func (p *Processor) Cycle() {
	if p.halted {
		return
	}
	p.stats.Cycles++
	if p.sink != nil {
		p.sink.BeginCycle(p.stats.Cycles, p.stats.Retired)
	}
	woke := p.array.Tick()
	p.fabric.Tick()
	var required arch.Counts
	retired := 0
	if p.settle.ok && !woke {
		required = p.settle.required
		if p.manager != nil {
			p.steer(required)
		}
		if p.fabric.AvailableSet()&^p.settle.avail == 0 {
			*p.settle.bucket++
			p.dispatchStall()
			if p.sink != nil {
				p.sink.EndCycle(p)
			}
			return
		}
	} else {
		retired = p.retire()
		if p.halted {
			// The final cycle retired the HALT; count it with the useful
			// cycles so the bottleneck buckets partition the run exactly.
			p.stats.CyclesIssued++
			if p.sink != nil {
				p.sink.EndCycle(p)
				p.sink.RunEnd()
			}
			return
		}
		if p.manager != nil {
			required = p.demand()
			p.steer(required)
		}
	}
	quiet := p.issue()
	dispatched, stalled := p.dispatch()
	fetched := p.fill()
	p.settle.ok = quiet && retired == 0 && dispatched == 0 && stalled && !fetched
	p.settle.required = required
	if p.sink != nil {
		p.sink.EndCycle(p)
	}
}

// demand returns the unit requirements the configuration manager sees:
// the unscheduled window instructions, plus the fetch buffer under
// ManagerLookahead.
func (p *Processor) demand() arch.Counts {
	required := p.array.RequiredCounts()
	if p.params.ManagerLookahead {
		for i := p.fetchHead; i < len(p.fetchBuf); i++ {
			required[p.fetchBuf[i].f.Inst.Unit()]++
		}
	}
	return required
}

// steer hands the demand vector to the configuration manager, through
// the manage hook when one is installed.
func (p *Processor) steer(required arch.Counts) {
	proceed := true
	if p.manageHook != nil {
		required, proceed = p.manageHook(required)
	}
	if proceed {
		p.manager.Manage(required)
	}
}

// Run executes until HALT retires or maxCycles elapse. It returns the
// stats and an error wrapping ErrCycleLimit when the cycle budget ran
// out — which, with FFUs enabled, indicates a genuine simulator bug, and
// with FFUs disabled is the expected starvation outcome of the X4
// ablation.
func (p *Processor) Run(maxCycles int) (Stats, error) {
	return p.RunContext(context.Background(), maxCycles)
}

// CtxCheckInterval is how many cycles RunContext simulates between
// context polls: cancellation takes effect within one interval.
const CtxCheckInterval = 1024

// RunContext is Run with cancellation: the context is checked every
// CtxCheckInterval cycles, and on cancellation the run stops with the
// context's error (context.Canceled or context.DeadlineExceeded) and
// the statistics accumulated so far. The machine stays consistent — a
// cancelled run can be resumed with another RunContext call.
func (p *Processor) RunContext(ctx context.Context, maxCycles int) (Stats, error) {
	for !p.halted && p.stats.Cycles < maxCycles {
		if err := ctx.Err(); err != nil {
			return p.Stats(), err
		}
		limit := p.stats.Cycles + CtxCheckInterval
		if limit > maxCycles {
			limit = maxCycles
		}
		for !p.halted && p.stats.Cycles < limit {
			p.Cycle()
		}
	}
	if !p.halted {
		return p.Stats(), fmt.Errorf("cpu: no HALT within %d cycles (retired %d): %w",
			maxCycles, p.stats.Retired, ErrCycleLimit)
	}
	return p.Stats(), nil
}

// retire commits the oldest complete instructions in order and returns
// how many it committed.
func (p *Processor) retire() int {
	n := 0
	for ; n < p.params.RetireWidth && p.count > 0; n++ {
		slot := p.head
		e := &p.rob[slot]
		if !e.issued || !p.array.ResultAvailable(e.row) {
			return n
		}
		if e.isStore {
			p.commitStore(e)
		}
		if e.hasDest {
			p.reg[e.dest] = e.value
			if p.regProducer[e.dest] == slot {
				p.regProducer[e.dest] = -1
			}
		}
		p.array.Release(e.row)
		e.valid = false
		if p.head++; p.head == len(p.rob) {
			p.head = 0
		}
		p.count--
		p.stats.Retired++
		if p.sink != nil {
			p.sink.Retire(e.seq, e.pc)
		}
		if e.halts {
			p.halted = true
			return n + 1
		}
	}
	return n
}

// commitStore applies a retiring store to memory.
func (p *Processor) commitStore(e *robEntry) {
	switch e.storeSize {
	case 1:
		p.memory.StoreByte(e.storeAddr, uint8(e.storeVal))
	case 2:
		p.memory.StoreHalf(e.storeAddr, uint16(e.storeVal))
	case 4:
		p.memory.StoreWord(e.storeAddr, e.storeVal)
	default:
		panic(fmt.Sprintf("cpu: store of size %d", e.storeSize))
	}
}

// issue grants execution to the oldest requesting instructions that can
// claim a unit, and executes them functionally. It reports whether no
// row requested, recording the availability it saw and the bucket it
// counted for a settled cycle.
func (p *Processor) issue() (quiet bool) {
	// Requests are computed combinationally at the start of the cycle —
	// a grant this cycle cannot wake a consumer until the next cycle —
	// then served in age order (oldest first). The request lines come
	// back as one bitboard: a grant or flush mid-loop does not refresh
	// the snapshot, matching the combinational semantics.
	avail := p.fabric.AvailableSet()
	reqMask := p.array.RequestMask(avail)
	if reqMask == 0 {
		p.settle.avail = avail
		p.settle.bucket = p.bucket(0)
		*p.settle.bucket++
		return true
	}
	granted := 0
	initialCount := p.count
	for n := 0; n < initialCount && granted < p.params.IssueWidth; n++ {
		i := n // OrderOldest: age position == visit order
		switch p.params.IssueOrder {
		case OrderYoungest:
			i = initialCount - 1 - n
		case OrderRotate:
			i = (n + p.stats.Cycles) % initialCount
		}
		slot := p.slotAt(i)
		e := &p.rob[slot]
		if !e.valid || e.issued || reqMask>>uint(e.row)&1 == 0 {
			continue
		}
		ref, ok := p.fabric.Acquire(e.inst.Unit(), int(e.latency))
		if !ok {
			p.stats.IssueContention++
			if p.params.SelectFree {
				// No select stage: the colliding requester was granted
				// anyway, wastes its issue slot and replays later.
				p.array.Grant(e.row)
				p.array.Reschedule(e.row)
				p.stats.Pileups++
				granted++
			}
			continue
		}
		p.array.Grant(e.row)
		e.issued = true
		granted++
		p.stats.IssuedByType[e.inst.Unit()]++
		p.execute(slot, ref)
		if p.halted {
			return false
		}
		// execute may have flushed younger entries; the loop re-checks
		// validity and the requesting set each iteration, so squashed
		// rows are skipped naturally.
	}
	*p.bucket(granted)++
	return false
}

// bucket returns the counter that classifies the cycle by its
// bottleneck for the X14 study.
func (p *Processor) bucket(granted int) *int {
	switch {
	case granted > 0:
		return &p.stats.CyclesIssued
	case p.count == 0:
		return &p.stats.CyclesFrontend
	case p.array.ReadyMask() != 0:
		// Ready work blocked only by unit availability: unissued entries
		// are exactly the unscheduled rows (a pileup grant reschedules),
		// so the ready bitboard answers this in one mask op.
		return &p.stats.CyclesUnits
	default:
		return &p.stats.CyclesDeps
	}
}

// execute runs the instruction at the given ROB slot functionally,
// recording its result, store effect, memory timing and branch outcome.
func (p *Processor) execute(slot int, ref rfu.UnitRef) {
	e := &p.rob[slot]
	// Reset the shim field-by-field: assigning a fresh execMem would
	// rewrite the pointer field (set once at construction) and drag the
	// write barrier into the hottest loop.
	p.execShim.seq = e.seq
	p.execShim.loaded = false
	p.execShim.stored = false
	shim := &p.execShim
	var st isa.State
	st.PC = e.pc
	st.Mem = shim
	// Each source reads its producer's result when the slot dispatch
	// bound still holds an instruction older than e. Then it is that
	// producer: no older instruction can enter the window after e, and
	// a flush that squashes the producer squashes e too. Otherwise the
	// producer has retired (its slot may since hold an instruction
	// younger than e) and the value is in the register file, which
	// nothing younger than e can have written yet. The wake-up
	// dependencies guarantee the producer has executed by issue time; a
	// violation panics.
	for i, r := range [2]uint8{e.inst.Rs1, e.inst.Rs2} {
		v := p.reg[r]
		if s := e.src[i]; s >= 0 {
			if pe := &p.rob[s]; pe.valid && pe.seq < e.seq {
				if !pe.executed {
					panic(fmt.Sprintf("cpu: operand %s read before producer executed (seq %d -> %d)",
						isa.RegName(r), e.seq, pe.seq))
				}
				v = pe.value
			}
		}
		st.Reg[r] = v
	}
	if err := isa.Exec(e.inst, &st); err != nil {
		panic(fmt.Sprintf("cpu: execute %v at pc %d: %v", e.inst, e.pc, err))
	}
	if dest, ok := e.inst.Dest(); ok {
		e.hasDest = true
		e.dest = dest
		e.value = st.Reg[dest]
	}
	if shim.stored {
		e.isStore = true
		e.storeAddr = shim.storeAddr
		e.storeSize = shim.storeSize
		e.storeVal = shim.storeVal
	}
	latency := int(e.latency)
	if shim.loaded {
		if extra := p.dcache.Access(shim.loadAddr); extra > 0 {
			p.array.ExtendTimer(e.row, extra)
			p.fabric.ExtendBusy(ref, extra)
			latency += extra
		}
	}
	e.actualNext = st.PC
	e.halts = st.Halted
	e.executed = true
	if p.sink != nil {
		p.sink.Issue(e.seq, e.pc, e.inst, latency)
	}

	if e.inst.Op.IsBranch() {
		p.resolveBranch(slot)
	}
}

// resolveBranch trains the predictor and recovers from mispredictions by
// squashing younger instructions and redirecting fetch.
func (p *Processor) resolveBranch(slot int) {
	e := &p.rob[slot]
	p.stats.BranchesResolved++
	taken := e.actualNext != e.pc+1
	switch e.inst.Op {
	case isa.JAL:
		// Static target, always taken: never mispredicts.
	case isa.JALR:
		p.pred.UpdateTarget(e.pc, e.actualNext)
	default:
		p.pred.UpdateTaken(e.pc, taken)
	}
	correct := e.actualNext == e.predNext
	p.pred.RecordOutcome(correct)
	if correct {
		return
	}
	p.stats.Mispredicts++
	p.flushYoungerThan(e.seq)
	p.fetchBuf = p.fetchBuf[:0]
	p.fetchHead = 0
	p.front.Redirect(e.actualNext)
}

// flushYoungerThan squashes every in-flight instruction younger than seq
// and rebuilds the register producer map from the survivors.
func (p *Processor) flushYoungerThan(seq uint64) {
	for p.count > 0 {
		tail := p.slotAt(p.count - 1)
		e := &p.rob[tail]
		if e.seq <= seq {
			break
		}
		p.array.Release(e.row)
		e.valid = false
		p.count--
		p.stats.Flushed++
		if p.sink != nil {
			p.sink.Squash(e.seq, e.pc, e.inst)
		}
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	for i := 0; i < p.count; i++ {
		slot := p.slotAt(i)
		e := &p.rob[slot]
		if d, ok := e.inst.Dest(); ok {
			p.regProducer[d] = slot
		}
	}
}

// producer returns the RUU slot of register r's youngest in-flight
// producer for an instruction being dispatched, or -1 when the value
// comes from the register file — always for the zero register, which
// no instruction writes.
func (p *Processor) producer(r uint8) int8 {
	if r == isa.RegZero {
		return -1
	}
	if slot := p.regProducer[r]; slot >= 0 && p.rob[slot].valid {
		return int8(slot)
	}
	return -1
}

// specByte returns the value memory byte addr holds for a load with the
// given sequence number: architectural memory overlaid, in program order,
// with older in-flight stores (store-to-load forwarding through the store
// buffer).
func (p *Processor) specByte(addr uint32, seq uint64) uint8 {
	v := p.memory.LoadByte(addr)
	for i := 0; i < p.count; i++ {
		slot := p.slotAt(i)
		e := &p.rob[slot]
		if e.seq >= seq {
			break
		}
		if !e.valid || !e.isStore || !e.executed {
			continue
		}
		if addr >= e.storeAddr && addr < e.storeAddr+uint32(e.storeSize) {
			shift := 8 * (addr - e.storeAddr)
			v = uint8(e.storeVal >> shift)
		}
	}
	return v
}

// dispatch moves decoded instructions from the fetch buffer into the
// window, recording register and memory-ordering dependencies. It
// returns how many it moved and whether a full window stopped it.
func (p *Processor) dispatch() (n int, stalled bool) {
	for ; n < p.params.DispatchWidth && p.fetchHead < len(p.fetchBuf); n++ {
		if p.count == len(p.rob) || p.array.Free() == 0 {
			p.dispatchStall()
			return n, true
		}
		entry := &p.fetchBuf[p.fetchHead]
		f := &entry.f

		deps := p.collectDeps(f.Inst)
		latency := p.params.Latencies.Of(f.Inst.Op)
		slot := p.slotAt(p.count)
		row, ok := p.array.Allocate(f.Inst.Unit(), deps, latency, uint64(slot))
		if !ok {
			p.dispatchStall()
			return n, true
		}
		p.fetchHead++

		p.seq++
		p.rob[slot] = robEntry{
			valid:     true,
			seq:       p.seq,
			inst:      f.Inst,
			pc:        f.PC,
			row:       row,
			latency:   int32(latency),
			src:       [2]int8{p.producer(f.Inst.Rs1), p.producer(f.Inst.Rs2)},
			predNext:  f.PredNext,
			predTaken: f.PredTaken,
		}
		p.count++
		if p.sink != nil {
			p.sink.Dispatch(p.seq, f.PC, f.Inst, entry.cycle)
		}
		if d, ok := f.Inst.Dest(); ok {
			p.regProducer[d] = slot
		}
	}
	return n, false
}

// dispatchStall records a dispatch attempt blocked by a full window.
func (p *Processor) dispatchStall() {
	p.stats.DispatchStallFull++
	if p.sink != nil {
		p.sink.DispatchStall()
	}
}

// collectDeps returns the wake-up rows the instruction must wait for:
// the youngest in-flight producer of each source register, plus — for
// loads — every older in-flight store (conservative memory
// disambiguation, so store-to-load forwarding always sees resolved
// addresses).
func (p *Processor) collectDeps(in isa.Inst) []int {
	deps := p.depsScratch[:0]
	regs, nsrc := in.SourceRegs()
	for si := 0; si < nsrc; si++ {
		r := regs[si]
		if r == isa.RegZero {
			continue
		}
		if slot := p.regProducer[r]; slot >= 0 && p.rob[slot].valid {
			deps = appendDep(deps, p.rob[slot].row)
		}
	}
	if in.Op.IsLoad() {
		for i := 0; i < p.count; i++ {
			slot := p.slotAt(i)
			e := &p.rob[slot]
			if e.valid && e.inst.Op.IsStore() {
				deps = appendDep(deps, e.row)
			}
		}
	}
	p.depsScratch = deps
	return deps
}

// appendDep appends row to deps unless it is already present.
func appendDep(deps []int, row int) []int {
	for _, d := range deps {
		if d == row {
			return deps
		}
	}
	return append(deps, row)
}

// fill tops up the fetch buffer from the front end. It reports whether
// it consulted the front end (false when the buffer was full).
func (p *Processor) fill() bool {
	const bufCap = 16
	if len(p.fetchBuf)-p.fetchHead >= bufCap {
		return false
	}
	if p.fetchHead > 0 {
		// Compact the consumed prefix away so append reuses the backing
		// array instead of growing past stranded capacity.
		n := copy(p.fetchBuf, p.fetchBuf[p.fetchHead:])
		p.fetchBuf = p.fetchBuf[:n]
		p.fetchHead = 0
	}
	p.fetchScratch = p.front.AppendFetch(p.fetchScratch[:0])
	for _, f := range p.fetchScratch {
		p.fetchBuf = append(p.fetchBuf, fetchedEntry{f: f, cycle: p.stats.Cycles})
	}
	return true
}

// execMem adapts the processor's speculative memory view to
// isa.DataMemory for functional execution at issue: loads read through
// the store buffer overlay, stores are recorded for the buffer instead of
// being applied.
type execMem struct {
	p   *Processor
	seq uint64

	loaded   bool
	loadAddr uint32

	stored    bool
	storeAddr uint32
	storeSize int
	storeVal  uint32
}

func (m *execMem) noteLoad(addr uint32) {
	if !m.loaded {
		m.loaded = true
		m.loadAddr = addr
	}
}

func (m *execMem) LoadByte(addr uint32) uint8 {
	m.noteLoad(addr)
	return m.p.specByte(addr, m.seq)
}

func (m *execMem) LoadHalf(addr uint32) uint16 {
	m.noteLoad(addr)
	return uint16(m.p.specByte(addr, m.seq)) | uint16(m.p.specByte(addr+1, m.seq))<<8
}

func (m *execMem) LoadWord(addr uint32) uint32 {
	m.noteLoad(addr)
	return uint32(m.LoadHalf(addr)) | uint32(m.LoadHalf(addr+2))<<16
}

func (m *execMem) record(addr uint32, size int, v uint32) {
	if m.stored {
		panic("cpu: instruction performed two stores")
	}
	m.stored = true
	m.storeAddr = addr
	m.storeSize = size
	m.storeVal = v
}

func (m *execMem) StoreByte(addr uint32, v uint8)  { m.record(addr, 1, uint32(v)) }
func (m *execMem) StoreHalf(addr uint32, v uint16) { m.record(addr, 2, uint32(v)) }
func (m *execMem) StoreWord(addr uint32, v uint32) { m.record(addr, 4, v) }
