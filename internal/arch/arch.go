// Package arch defines the architectural constants shared by every other
// package in the simulator: the functional-unit taxonomy, the 3-bit
// resource-type encodings from Table 1 of the paper, per-unit slot costs,
// and the sizing constants of the reference machine (five fixed functional
// units, eight reconfigurable slots, a seven-entry instruction queue).
//
// The package is dependency-free on purpose; it sits at the bottom of the
// import graph.
package arch

import "fmt"

// UnitType identifies one of the five functional-unit classes of the
// architecture. Every instruction of the ISA is serviced by exactly one
// unit type (a stated assumption of the paper, §2).
type UnitType uint8

// The five functional-unit types, in the order the paper lists them.
const (
	IntALU UnitType = iota // integer arithmetic/logic unit
	IntMDU                 // integer multiply/divide unit
	LSU                    // load/store unit
	FPALU                  // floating-point arithmetic/logic unit
	FPMDU                  // floating-point multiply/divide unit

	// NumUnitTypes is the number of functional-unit classes.
	NumUnitTypes = 5
)

var unitNames = [NumUnitTypes]string{"IntALU", "IntMDU", "LSU", "FPALU", "FPMDU"}

// String returns the paper's name for the unit type.
func (t UnitType) String() string {
	if int(t) < len(unitNames) {
		return unitNames[t]
	}
	return fmt.Sprintf("UnitType(%d)", uint8(t))
}

// Valid reports whether t names one of the five unit types.
func (t UnitType) Valid() bool { return t < NumUnitTypes }

// ParseUnit resolves a unit-type name ("IntALU", "FPMDU", ...); ok is
// false for unknown names.
func ParseUnit(name string) (UnitType, bool) {
	for i, n := range unitNames {
		if n == name {
			return UnitType(i), true
		}
	}
	return 0, false
}

// UnitTypes returns all unit types in canonical order. The returned slice
// is freshly allocated; callers may modify it.
func UnitTypes() []UnitType {
	return []UnitType{IntALU, IntMDU, LSU, FPALU, FPMDU}
}

// Encoding is the 3-bit resource-type code stored in the resource
// allocation vector (Table 1, rightmost column). Codes 1-5 name the unit
// types; EncEmpty marks an unconfigured slot and EncCont marks a slot that
// holds the continuation of a multi-slot unit whose first slot carries the
// unit's own encoding (§3.2).
type Encoding uint8

const (
	// EncEmpty marks a reconfigurable slot with no unit configured.
	EncEmpty Encoding = 0
	// EncIntALU .. EncFPMDU are the encodings of the five unit types.
	EncIntALU Encoding = 1
	EncIntMDU Encoding = 2
	EncLSU    Encoding = 3
	EncFPALU  Encoding = 4
	EncFPMDU  Encoding = 5
	// EncCont marks a slot occupied by the continuation of a multi-slot
	// unit. The paper's exact code for this case is garbled in the source
	// text; 0b111 is our documented choice (DESIGN.md §2).
	EncCont Encoding = 7

	// EncodingBits is the width of a resource-type encoding.
	EncodingBits = 3
)

// Encode returns the allocation-vector encoding of a unit type.
func Encode(t UnitType) Encoding { return Encoding(t) + 1 }

// DecodeUnit returns the unit type named by e. ok is false for EncEmpty,
// EncCont and out-of-range codes.
func DecodeUnit(e Encoding) (t UnitType, ok bool) {
	if e >= EncIntALU && e <= EncFPMDU {
		return UnitType(e - 1), true
	}
	return 0, false
}

// String renders the encoding for traces and dumps.
func (e Encoding) String() string {
	switch {
	case e == EncEmpty:
		return "empty"
	case e == EncCont:
		return "cont"
	default:
		if t, ok := DecodeUnit(e); ok {
			return t.String()
		}
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// slotCosts holds SlotCost per unit type.
var slotCosts = [NumUnitTypes]int8{IntALU: 1, IntMDU: 2, LSU: 1, FPALU: 3, FPMDU: 3}

// SlotCost returns the number of reconfigurable slots a unit of type t
// occupies: IntALUs and LSUs fit one slot, IntMDUs span two, FP units span
// three (§4.2 of the paper). It is a table lookup the compiler inlines;
// an invalid type panics out of line.
func SlotCost(t UnitType) int {
	if t >= NumUnitTypes {
		invalidSlotCost(t)
	}
	return int(slotCosts[t])
}

// invalidSlotCost is kept out of line so SlotCost stays cheap to inline.
//
//go:noinline
func invalidSlotCost(t UnitType) {
	panic(fmt.Sprintf("arch: SlotCost of invalid unit type %d", uint8(t)))
}

// Reference-machine sizing constants (Fig. 1).
const (
	// NumRFUSlots is the number of reconfigurable slots in the fabric.
	NumRFUSlots = 8
	// NumFFUs is the number of fixed functional units: one per type.
	NumFFUs = NumUnitTypes
	// QueueSize is the number of instruction-queue / wake-up-array
	// entries; the paper assumes seven so that per-type requirement
	// counts fit in three bits.
	QueueSize = 7
	// NumConfigs is the number of candidate configurations scored by the
	// selection unit: the current configuration plus three predefined
	// steering configurations.
	NumConfigs = 4
	// CountBits is the width of a per-type requirement count; with at
	// most QueueSize=7 queued instructions three bits suffice (§3.1).
	CountBits = 3
)

// Counts holds one small integer per unit type, used for both requirement
// counts (how many units of each type the queued instructions need) and
// availability counts (how many are configured). It is a value type;
// copies are independent.
type Counts [NumUnitTypes]int

// Total returns the sum over all unit types.
func (c Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Add returns the elementwise sum c + d.
func (c Counts) Add(d Counts) Counts {
	for t := range c {
		c[t] += d[t]
	}
	return c
}

// String renders the counts as "IntALU:n IntMDU:n LSU:n FPALU:n FPMDU:n".
func (c Counts) String() string {
	s := ""
	for t, v := range c {
		if t > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", UnitType(t), v)
	}
	return s
}

// Slots returns the total number of reconfigurable slots the counted units
// would occupy.
func (c Counts) Slots() int {
	n := 0
	for t, v := range c {
		n += v * SlotCost(UnitType(t))
	}
	return n
}
