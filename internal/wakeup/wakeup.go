// Package wakeup implements the select-free wake-up array of §4.1
// (Figures 4–6, after Brown, Stark and Patt, "Select-Free Instruction
// Scheduling Logic", MICRO-34). Each array entry holds a one-hot
// required-unit vector and one dependency bit per array entry; an entry
// requests execution when it is unscheduled, its unit type is available,
// and every entry it depends on has asserted its result-available line.
// Countdown timers assert result-available lines at the moment a granted
// instruction's result will be ready; retirement clears the entry's
// column everywhere so later instructions never wait on a retired
// producer.
//
// The array is select-free: it only raises execution *requests*.
// Contention between requesters for the same unit type is resolved by the
// scheduler (package cpu), as in the paper.
//
// The hot state is stored as bitboards: one uint64 mask per array-wide
// signal (used, scheduled, result-available) with bit i carrying row i,
// one dependency mask per row with bit j carrying "row i waits on row j",
// and one row mask per unit type. The Fig. 6 request logic then
// evaluates in a handful of boolean word operations instead of a loop
// over the dependency matrix, and the board accessors (UsedMask,
// ReadyMask, RequestMask, ...) expose the packed signals directly to the
// scheduler.
package wakeup

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/arch"
	"repro/internal/logic"
)

// MaxSize is the largest supported array: one row per bit of the
// bitboard words. The paper's machine uses arch.QueueSize = 7.
const MaxSize = 64

// ValidSize reports whether size is a buildable array: 1 to MaxSize rows.
func ValidSize(size int) error {
	if size <= 0 || size > MaxSize {
		return fmt.Errorf("wakeup: array size %d outside [1, %d] rows", size, MaxSize)
	}
	return nil
}

// ValidLatency reports whether latency is a usable execution latency:
// at least one cycle, and small enough for the int32 countdown timers.
func ValidLatency(latency int) error {
	if latency < 1 || latency > math.MaxInt32 {
		return fmt.Errorf("wakeup: latency %d outside [1, %d] cycles", latency, math.MaxInt32)
	}
	return nil
}

// Array is the wake-up array. The zero value is unusable; use New.
type Array struct {
	size int
	full uint64 // mask with one bit per row

	used      uint64 // row holds an instruction
	scheduled uint64 // row has been granted execution
	resultOK  uint64 // row's result-available line

	deps     []uint64 // deps[i] bit j: result required from row j
	typeMask [arch.NumUnitTypes]uint64

	unit    []arch.UnitType
	timer   []int32 // countdown until the result-available line asserts
	latency []int32
	tag     []uint64 // caller-supplied identity (e.g. RUU id)
}

// New returns an empty wake-up array with the given number of entries
// (the paper's machine uses arch.QueueSize = 7). Sizes above MaxSize —
// the bitboard word width — panic.
func New(size int) *Array {
	if err := ValidSize(size); err != nil {
		panic(err.Error())
	}
	return &Array{
		size:    size,
		full:    (uint64(1) << uint(size)) - 1,
		deps:    make([]uint64, size),
		unit:    make([]arch.UnitType, size),
		timer:   make([]int32, size),
		latency: make([]int32, size),
		tag:     make([]uint64, size),
	}
}

// Size returns the number of rows.
func (a *Array) Size() int { return a.size }

// Free returns the number of unused rows.
func (a *Array) Free() int { return a.size - bits.OnesCount64(a.used) }

// Allocate inserts an instruction needing the given unit type, dependent
// on the listed producer rows, with the given execution latency. tag is
// an opaque caller identity returned by accessors. It returns the row
// index, or ok=false when the array is full. Dependencies must name used
// rows other than the allocated one; violations panic, as they indicate a
// dispatcher bug.
func (a *Array) Allocate(unit arch.UnitType, deps []int, latency int, tag uint64) (int, bool) {
	if err := ValidLatency(latency); err != nil {
		panic(err.Error())
	}
	free := ^a.used & a.full
	if free == 0 {
		return 0, false
	}
	row := bits.TrailingZeros64(free)
	var depMask uint64
	for _, d := range deps {
		if d < 0 || d >= a.size || d == row || a.used>>uint(d)&1 == 0 {
			panic(fmt.Sprintf("wakeup: bad dependency %d for row %d", d, row))
		}
		// A producer whose result-available line is already asserted
		// imposes no wait; recording the bit anyway is harmless and
		// matches the hardware, where the line stays high until
		// retirement.
		depMask |= 1 << uint(d)
	}
	bit := uint64(1) << uint(row)
	a.used |= bit
	a.scheduled &^= bit
	a.resultOK &^= bit
	a.deps[row] = depMask
	a.typeMask[unit] |= bit
	a.unit[row] = unit
	a.timer[row] = 0
	a.latency[row] = int32(latency)
	a.tag[row] = tag
	return row, true
}

// Request reports whether row i requests execution given the per-type
// unit availability lines — the Fig. 6 logic: not yet scheduled, and for
// every column either not needed or available.
func (a *Array) Request(i int, unitAvail [arch.NumUnitTypes]bool) bool {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit != 0 {
		return false
	}
	if !unitAvail[a.unit[i]] {
		return false
	}
	return a.deps[i]&^a.resultOK == 0
}

// RequestMask evaluates the Fig. 6 request logic for every row at once
// against a packed unit-availability bitset (bit t = a unit of type t can
// accept work) and returns the requesting rows as a bitboard. It is the
// board form of Request: RequestMask(s)>>i&1 == Request(i, unpack(s))
// for every row i.
func (a *Array) RequestMask(availSet uint8) uint64 {
	var eligible uint64
	for t := 0; availSet != 0; t++ {
		if availSet&1 != 0 {
			eligible |= a.typeMask[t]
		}
		availSet >>= 1
	}
	req := a.used &^ a.scheduled & eligible
	for m := req; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a.deps[i]&^a.resultOK != 0 {
			req &^= 1 << uint(i)
		}
	}
	return req
}

// Requests returns the rows requesting execution, in row order.
func (a *Array) Requests(unitAvail [arch.NumUnitTypes]bool) []int {
	var out []int
	for i := 0; i < a.size; i++ {
		if a.Request(i, unitAvail) {
			out = append(out, i)
		}
	}
	return out
}

// Ready reports whether row i's data dependencies are satisfied,
// regardless of unit availability — the condition the configuration
// manager's "ready to be executed" queue view uses.
func (a *Array) Ready(i int) bool {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit != 0 {
		return false
	}
	return a.deps[i]&^a.resultOK == 0
}

// ReadyMask returns the rows whose data dependencies are satisfied and
// that have not been granted execution, as a bitboard — the board form
// of Ready.
func (a *Array) ReadyMask() uint64 {
	ready := a.used &^ a.scheduled
	for m := ready; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a.deps[i]&^a.resultOK != 0 {
			ready &^= 1 << uint(i)
		}
	}
	return ready
}

// UsedMask returns the rows holding instructions as a bitboard.
func (a *Array) UsedMask() uint64 { return a.used }

// ScheduledMask returns the granted rows as a bitboard.
func (a *Array) ScheduledMask() uint64 { return a.scheduled }

// ResultMask returns the asserted result-available lines as a bitboard.
func (a *Array) ResultMask() uint64 { return a.resultOK }

// PendingMask returns the rows holding unscheduled instructions — the
// requirement-encoder input set — as a bitboard.
func (a *Array) PendingMask() uint64 { return a.used &^ a.scheduled }

// DepMask returns row i's dependency columns as a bitboard.
func (a *Array) DepMask(i int) uint64 { return a.deps[i] }

// TypeMask returns the rows whose instructions require unit type t.
func (a *Array) TypeMask(t arch.UnitType) uint64 { return a.typeMask[t] }

// Grant marks row i scheduled and starts its countdown timer: an
// instruction of latency N sets the timer to N-1, asserting the
// result-available line N-1 cycles later; a single-cycle instruction
// asserts it immediately (§4.1).
func (a *Array) Grant(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit != 0 {
		panic(fmt.Sprintf("wakeup: grant of row %d in invalid state", i))
	}
	a.scheduled |= bit
	a.timer[i] = a.latency[i] - 1
	if a.timer[i] == 0 {
		a.resultOK |= bit
	}
}

// Reschedule de-asserts row i's scheduled bit so it will request
// execution again — the replay path used when a granted instruction must
// be re-executed (§4.1).
func (a *Array) Reschedule(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 {
		panic(fmt.Sprintf("wakeup: reschedule of unused row %d", i))
	}
	a.scheduled &^= bit
	a.resultOK &^= bit
	a.timer[i] = 0
}

// ExtendTimer adds extra cycles to a running countdown — the mechanism
// the processor uses when an instruction's true latency is discovered in
// flight (e.g. a cache miss lengthening a load).
func (a *Array) ExtendTimer(i, extra int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 || a.scheduled&bit == 0 || extra < 0 {
		panic(fmt.Sprintf("wakeup: bad ExtendTimer(%d, %d)", i, extra))
	}
	a.resultOK &^= bit
	a.timer[i] += int32(extra)
}

// Tick advances every countdown timer one cycle, asserting
// result-available lines that reach zero, and reports whether it
// asserted any. Only the rows that are granted and still counting —
// used & scheduled &^ resultOK — carry live timers, so the pass walks
// exactly those board bits.
func (a *Array) Tick() (asserted bool) {
	for m := a.used & a.scheduled &^ a.resultOK; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a.timer[i] > 0 {
			a.timer[i]--
		}
		if a.timer[i] == 0 {
			a.resultOK |= 1 << uint(i)
			asserted = true
		}
	}
	return asserted
}

// Release retires row i: the entry is cleared and its column is cleared
// in every other row, so instructions that depended on it no longer wait
// (§4.1: "every wake-up array entry associated with the instruction is
// cleared").
func (a *Array) Release(i int) {
	bit := uint64(1) << uint(i)
	if a.used&bit == 0 {
		panic(fmt.Sprintf("wakeup: release of unused row %d", i))
	}
	a.used &^= bit
	a.scheduled &^= bit
	a.resultOK &^= bit
	a.typeMask[a.unit[i]] &^= bit
	a.deps[i] = 0
	a.timer[i] = 0
	a.latency[i] = 0
	a.tag[i] = 0
	a.unit[i] = 0
	col := ^bit
	for j := 0; j < a.size; j++ {
		a.deps[j] &= col
	}
}

// Row state accessors.

// Used reports whether row i holds an instruction.
func (a *Array) Used(i int) bool { return a.used>>uint(i)&1 != 0 }

// Scheduled reports whether row i has been granted execution.
func (a *Array) Scheduled(i int) bool { return a.scheduled>>uint(i)&1 != 0 }

// ResultAvailable reports row i's result-available line.
func (a *Array) ResultAvailable(i int) bool { return a.resultOK>>uint(i)&1 != 0 }

// Unit returns row i's required unit type.
func (a *Array) Unit(i int) arch.UnitType { return a.unit[i] }

// Tag returns the caller identity stored at allocation.
func (a *Array) Tag(i int) uint64 { return a.tag[i] }

// DependsOn reports whether row i waits on row j.
func (a *Array) DependsOn(i, j int) bool { return a.deps[i]>>uint(j)&1 != 0 }

// RequiredCounts returns how many units of each type the *unscheduled*
// instructions in the array require — the requirement-encoder input of
// the configuration selection unit (§3.1). Scheduled instructions already
// hold units and are excluded.
func (a *Array) RequiredCounts() arch.Counts {
	var c arch.Counts
	pending := a.used &^ a.scheduled
	for t := range a.typeMask {
		c[t] = bits.OnesCount64(a.typeMask[t] & pending)
	}
	return c
}

// ReadyCounts is RequiredCounts restricted to rows whose dependencies are
// already satisfied.
func (a *Array) ReadyCounts() arch.Counts {
	var c arch.Counts
	ready := a.ReadyMask()
	for t := range a.typeMask {
		c[t] = bits.OnesCount64(a.typeMask[t] & ready)
	}
	return c
}

// Dump renders the array in the matrix form of Fig. 5: one row per entry
// with its one-hot execution-unit columns followed by the
// result-required-from columns. labels, when non-nil, names each row.
func (a *Array) Dump(labels []string) string {
	var b strings.Builder
	b.WriteString("entry")
	for _, t := range arch.UnitTypes() {
		fmt.Fprintf(&b, "%8s", t)
	}
	for j := 0; j < a.size; j++ {
		fmt.Fprintf(&b, "  E%d", j+1)
	}
	b.WriteString("\n")
	for i := 0; i < a.size; i++ {
		name := fmt.Sprintf("E%d", i+1)
		if labels != nil && i < len(labels) && labels[i] != "" {
			name = labels[i]
		}
		fmt.Fprintf(&b, "%-5s", name)
		for _, t := range arch.UnitTypes() {
			mark := 0
			if a.Used(i) && a.unit[i] == t {
				mark = 1
			}
			fmt.Fprintf(&b, "%8d", mark)
		}
		for j := 0; j < a.size; j++ {
			mark := 0
			if a.DependsOn(i, j) {
				mark = 1
			}
			fmt.Fprintf(&b, "%4d", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CircuitRequest is the gate-level reconstruction of Fig. 6 for one
// resource vector: for each resource column an OR of "not needed" with
// the availability line, for each entry column an OR of "not needed" with
// the result-available line, all ANDed together with the complement of
// the scheduled bit. Inputs are the row's raw vectors so tests can drive
// it exhaustively.
func CircuitRequest(unitNeeded [arch.NumUnitTypes]bool, unitAvail [arch.NumUnitTypes]bool,
	depNeeded, depResultOK []bool, scheduled bool) bool {
	if len(depNeeded) != len(depResultOK) {
		panic("wakeup: dependency vector length mismatch")
	}
	terms := make([]logic.Bit, 0, arch.NumUnitTypes+len(depNeeded)+1)
	for t := 0; t < arch.NumUnitTypes; t++ {
		terms = append(terms, logic.Or(logic.Not(logic.Bit(unitNeeded[t])), logic.Bit(unitAvail[t])))
	}
	for j := range depNeeded {
		terms = append(terms, logic.Or(logic.Not(logic.Bit(depNeeded[j])), logic.Bit(depResultOK[j])))
	}
	terms = append(terms, logic.Not(logic.Bit(scheduled)))
	return bool(logic.And(terms...))
}
