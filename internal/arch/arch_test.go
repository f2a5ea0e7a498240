package arch

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestUnitTypeString(t *testing.T) {
	want := map[UnitType]string{
		IntALU: "IntALU",
		IntMDU: "IntMDU",
		LSU:    "LSU",
		FPALU:  "FPALU",
		FPMDU:  "FPMDU",
	}
	for u, s := range want {
		if got := u.String(); got != s {
			t.Errorf("UnitType(%d).String() = %q, want %q", u, got, s)
		}
	}
	if got := UnitType(9).String(); got != "UnitType(9)" {
		t.Errorf("invalid type String() = %q", got)
	}
}

func TestUnitTypesOrder(t *testing.T) {
	ts := UnitTypes()
	if len(ts) != NumUnitTypes {
		t.Fatalf("UnitTypes() has %d entries, want %d", len(ts), NumUnitTypes)
	}
	for i, u := range ts {
		if int(u) != i {
			t.Errorf("UnitTypes()[%d] = %v, want ordinal %d", i, u, i)
		}
		if !u.Valid() {
			t.Errorf("UnitTypes()[%d] = %v not Valid", i, u)
		}
	}
	if UnitType(NumUnitTypes).Valid() {
		t.Error("UnitType(NumUnitTypes).Valid() = true, want false")
	}
}

// TestTable1Encodings pins the 3-bit resource-type encodings of Table 1.
func TestTable1Encodings(t *testing.T) {
	cases := []struct {
		t   UnitType
		enc Encoding
	}{
		{IntALU, 1}, {IntMDU, 2}, {LSU, 3}, {FPALU, 4}, {FPMDU, 5},
	}
	for _, c := range cases {
		if got := Encode(c.t); got != c.enc {
			t.Errorf("Encode(%v) = %d, want %d", c.t, got, c.enc)
		}
		u, ok := DecodeUnit(c.enc)
		if !ok || u != c.t {
			t.Errorf("DecodeUnit(%d) = %v, %v; want %v, true", c.enc, u, ok, c.t)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, u := range UnitTypes() {
		got, ok := DecodeUnit(Encode(u))
		if !ok || got != u {
			t.Errorf("DecodeUnit(Encode(%v)) = %v, %v", u, got, ok)
		}
	}
}

func TestDecodeUnitRejectsSpecialCodes(t *testing.T) {
	for _, e := range []Encoding{EncEmpty, EncCont, 6} {
		if _, ok := DecodeUnit(e); ok {
			t.Errorf("DecodeUnit(%d) ok, want rejected", e)
		}
	}
}

func TestEncodingFitsThreeBits(t *testing.T) {
	for _, u := range UnitTypes() {
		if e := Encode(u); e >= 1<<EncodingBits {
			t.Errorf("Encode(%v) = %d does not fit in %d bits", u, e, EncodingBits)
		}
	}
	if EncCont >= 1<<EncodingBits {
		t.Errorf("EncCont = %d does not fit in %d bits", EncCont, EncodingBits)
	}
}

func TestEncodingString(t *testing.T) {
	if got := EncEmpty.String(); got != "empty" {
		t.Errorf("EncEmpty.String() = %q", got)
	}
	if got := EncCont.String(); got != "cont" {
		t.Errorf("EncCont.String() = %q", got)
	}
	if got := EncLSU.String(); got != "LSU" {
		t.Errorf("EncLSU.String() = %q", got)
	}
	if got := Encoding(6).String(); got != "Encoding(6)" {
		t.Errorf("Encoding(6).String() = %q", got)
	}
}

// TestSlotCosts pins the paper's slot costs: 1 for IntALU and LSU, 2 for
// IntMDU, 3 for the FP units.
func TestSlotCosts(t *testing.T) {
	want := map[UnitType]int{IntALU: 1, LSU: 1, IntMDU: 2, FPALU: 3, FPMDU: 3}
	for u, n := range want {
		if got := SlotCost(u); got != n {
			t.Errorf("SlotCost(%v) = %d, want %d", u, got, n)
		}
	}
}

// TestSlotCostPanicsOnInvalid pins the out-of-line panic for every type
// past the table, including the first one.
func TestSlotCostPanicsOnInvalid(t *testing.T) {
	for _, u := range []UnitType{NumUnitTypes, 99, 255} {
		func() {
			defer func() {
				want := fmt.Sprintf("arch: SlotCost of invalid unit type %d", uint8(u))
				if r := recover(); r != want {
					t.Errorf("SlotCost(%d) panicked with %v, want %q", uint8(u), r, want)
				}
			}()
			SlotCost(u)
		}()
	}
}

func TestCountsTotalAndAdd(t *testing.T) {
	a := Counts{1, 2, 3, 0, 1}
	b := Counts{0, 1, 0, 4, 0}
	if got := a.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
	sum := a.Add(b)
	want := Counts{1, 3, 3, 4, 1}
	if sum != want {
		t.Errorf("Add = %v, want %v", sum, want)
	}
	// Add must not mutate its receiver (value semantics).
	if a != (Counts{1, 2, 3, 0, 1}) {
		t.Errorf("Add mutated receiver: %v", a)
	}
}

func TestCountsAddCommutative(t *testing.T) {
	f := func(a, b Counts) bool {
		// Bound the values so overflow cannot hide a real failure.
		for i := range a {
			a[i] &= 0xff
			b[i] &= 0xff
		}
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountsSlots(t *testing.T) {
	// 2 IntALU(1) + 1 IntMDU(2) + 1 LSU(1) + 1 FPALU(3) = 8 slots.
	c := Counts{2, 1, 1, 1, 0}
	if got := c.Slots(); got != 8 {
		t.Errorf("Slots = %d, want 8", got)
	}
	if got := (Counts{}).Slots(); got != 0 {
		t.Errorf("zero Counts Slots = %d, want 0", got)
	}
}

func TestCountsString(t *testing.T) {
	c := Counts{1, 0, 2, 0, 0}
	want := "IntALU:1 IntMDU:0 LSU:2 FPALU:0 FPMDU:0"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestReferenceMachineConstants(t *testing.T) {
	if NumRFUSlots != 8 || NumFFUs != 5 || QueueSize != 7 || NumConfigs != 4 {
		t.Errorf("reference constants changed: slots=%d ffus=%d queue=%d configs=%d",
			NumRFUSlots, NumFFUs, QueueSize, NumConfigs)
	}
	// Three bits must hold any per-type requirement count.
	if QueueSize >= 1<<CountBits {
		t.Errorf("QueueSize %d does not fit in %d bits", QueueSize, CountBits)
	}
}
