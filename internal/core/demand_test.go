package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/rfu"
)

func TestDemandPlanCoversDominantType(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	req := EncodeRequirements([]arch.UnitType{
		arch.FPMDU, arch.FPMDU, arch.FPMDU, arch.FPMDU,
	})
	planned := m.plan(req)
	if planned[arch.FPMDU] == 0 {
		t.Errorf("plan %v ignores the only demanded type", planned)
	}
	if planned.Slots() > arch.NumRFUSlots {
		t.Errorf("plan %v exceeds the fabric", planned)
	}
}

func TestDemandPlanEmptyForNoDemand(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	if planned := m.plan(arch.Counts{}); planned != (arch.Counts{}) {
		t.Errorf("plan of zero demand = %v", planned)
	}
}

// TestDemandPlanProportional: a mixed demand plans more of the heavier
// type.
func TestDemandPlanProportional(t *testing.T) {
	m := NewDemandManager(rfu.New(0))
	req := arch.Counts{5, 0, 2, 0, 0}
	planned := m.plan(req)
	if planned[arch.IntALU] <= planned[arch.LSU] {
		t.Errorf("plan %v does not favour the dominant type (req %v)", planned, req)
	}
}

// TestDemandTargetStructurallyValid under random demand vectors and
// random live fabrics.
func TestDemandTargetStructurallyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 2000; trial++ {
		f := rfu.New(0)
		// Random live layout via random legal reconfigurations.
		for i := 0; i < 5; i++ {
			ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			slot := rng.Intn(arch.NumRFUSlots)
			if f.CanReconfigure(ty, slot) {
				f.Reconfigure(ty, slot)
			}
		}
		m := NewDemandManager(f)
		m.Hysteresis = rng.Intn(3)
		var req arch.Counts
		left := arch.QueueSize
		for ti := range req {
			v := rng.Intn(left + 1)
			req[ti] = v
			left -= v
		}
		target := m.Target(req)
		if err := target.Validate(); err != nil {
			t.Fatalf("trial %d: invalid target %v for req %v: %v", trial, target.Layout, req, err)
		}
	}
}

// TestDemandKeepsUsefulUnits: units already matching the plan stay in
// place, so repeated identical demand converges to zero reconfiguration.
func TestDemandConvergesUnderConstantDemand(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := EncodeRequirements([]arch.UnitType{
		arch.FPALU, arch.FPALU, arch.LSU, arch.IntALU, arch.IntALU,
	})
	m.Step(req)
	after := m.Reconfigurations
	if after == 0 {
		t.Fatal("first step configured nothing")
	}
	layout := f.Allocation().Slots
	for i := 0; i < 20; i++ {
		m.Step(req)
	}
	if m.Reconfigurations != after {
		t.Errorf("reconfigurations grew from %d to %d under constant demand", after, m.Reconfigurations)
	}
	if f.Allocation().Slots != layout {
		t.Error("layout changed under constant demand")
	}
}

// TestDemandServesEveryDemandedType: after a few steps on an idle fabric
// every demanded type with positive count is configured or FFU-covered.
func TestDemandServesEveryDemandedType(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := arch.Counts{2, 1, 2, 1, 1}
	for i := 0; i < 5; i++ {
		m.Step(req)
	}
	for _, ty := range arch.UnitTypes() {
		if req[ty] > 0 && !f.Available(ty) {
			t.Errorf("%v demanded but unavailable", ty)
		}
	}
}

// TestDemandRespectsBusySpans: a busy unit is never destroyed.
func TestDemandRespectsBusySpans(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	m.Step(arch.Counts{0, 0, 0, 0, 4}) // fill with FPMDUs
	if f.Allocation().Slots[0] != arch.EncFPMDU {
		t.Fatalf("setup: %v", f.Allocation().Slots)
	}
	f.Acquire(arch.FPMDU, 100) // FFU
	ref, _ := f.Acquire(arch.FPMDU, 100)
	if ref.FFU {
		t.Fatal("setup: expected RFU")
	}
	busyHead := ref.Idx
	// Demand flips entirely to integer.
	for i := 0; i < 10; i++ {
		m.Step(arch.Counts{7, 0, 0, 0, 0})
	}
	if f.Allocation().Slots[busyHead] != arch.EncFPMDU {
		t.Error("busy FPMDU was destroyed")
	}
	if m.DeferredSlots == 0 {
		t.Error("deferred slots not counted")
	}
}

// TestDemandHysteresisReducesChurn: alternating demand with hysteresis
// produces no more reconfigurations than without.
func TestDemandHysteresisReducesChurn(t *testing.T) {
	run := func(h int) int {
		f := rfu.New(0)
		m := NewDemandManager(f)
		m.Hysteresis = h
		a := arch.Counts{4, 0, 2, 0, 0}
		b := arch.Counts{3, 0, 2, 1, 0}
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				m.Step(a)
			} else {
				m.Step(b)
			}
		}
		return m.Reconfigurations
	}
	if h2, h0 := run(2), run(0); h2 > h0 {
		t.Errorf("hysteresis 2 caused more churn (%d) than none (%d)", h2, h0)
	}
}

// TestDemandLayoutUsesWholeFabricUnderPressure: saturated uniform demand
// leaves few slots empty.
func TestDemandLayoutUsesWholeFabricUnderPressure(t *testing.T) {
	f := rfu.New(0)
	m := NewDemandManager(f)
	req := arch.Counts{2, 1, 2, 1, 1}
	for i := 0; i < 5; i++ {
		m.Step(req)
	}
	empty := 0
	for _, e := range f.Allocation().Slots {
		if e == arch.EncEmpty {
			empty++
		}
	}
	if empty > 2 {
		t.Errorf("%d slots left empty under saturated demand: %v", empty, f.Allocation().Slots)
	}
}

func TestOccupantType(t *testing.T) {
	cfg := config.MustNew("t", arch.IntMDU, arch.LSU)
	if occupantType(cfg, 0) != int(arch.IntMDU) || occupantType(cfg, 1) != int(arch.IntMDU) {
		t.Error("IntMDU span occupancy wrong")
	}
	if occupantType(cfg, 2) != int(arch.LSU) {
		t.Error("LSU occupancy wrong")
	}
	if occupantType(cfg, 5) != -1 {
		t.Error("empty slot has an occupant")
	}
}

// uncachedDemandStep is the reference Step: it synthesises from
// scratch every cycle and walks every placed unit of the target.
func uncachedDemandStep(m *DemandManager, required arch.Counts) {
	if required.Total() == 0 {
		return
	}
	target := m.Target(required)
	m.Syntheses++
	for _, u := range target.AppendUnits(nil) {
		if m.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue
		}
		if !m.fabric.CanReconfigure(u.Type, u.Slot) {
			m.DeferredSlots += u.Span
			continue
		}
		if m.fabric.Reconfigure(u.Type, u.Slot) {
			m.Reconfigurations++
		}
	}
}

// TestDemandTargetCacheExact drives a cached manager and an uncached
// twin through the same seeded demand, busy units and Hysteresis
// changes. Every target the cache holds after a Step must equal the
// uncached Target for the slots it was keyed on, both fabrics must stay
// identical, and so must the managers' counters. Counts past the packed
// 7-bit range must bypass the cache.
func TestDemandTargetCacheExact(t *testing.T) {
	hits, lookups := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		latency := []int{0, 1, 4, 16}[rng.Intn(4)]
		fa, fb := rfu.New(latency), rfu.New(latency)
		m, twin := NewDemandManager(fa), NewDemandManager(fb)
		// A small pool so demand repeats and entries get reused. Some
		// entries come in triples that differ in one count: 7 (where
		// the steering key saturates), a larger count inside the packed
		// range, and 135 or 263 past it. A key that clamped counts to 7
		// would alias the first two; one that wrapped them, the first
		// and the last.
		var pool []arch.Counts
		for n := 4 + rng.Intn(16); len(pool) < n; {
			var req arch.Counts
			for ti := range req {
				req[ti] = rng.Intn(5)
			}
			pool = append(pool, req)
			if rng.Intn(4) == 0 {
				ti := rng.Intn(arch.NumUnitTypes)
				req[ti] = 7
				pool = append(pool, req)
				req[ti] = 8 + rng.Intn(demandCountMax-7)
				pool = append(pool, req)
				req[ti] = 7 + (demandCountMax+1)*(1+rng.Intn(2))
				pool = append(pool, req)
			}
		}
		for cycle := 0; cycle < 3000; cycle++ {
			if rng.Intn(700) == 0 {
				h := rng.Intn(4)
				m.Hysteresis, twin.Hysteresis = h, h
			}
			if rng.Intn(3) == 0 {
				ty := arch.UnitType(rng.Intn(arch.NumUnitTypes))
				busy := 1 + rng.Intn(8)
				_, okA := fa.Acquire(ty, busy)
				_, okB := fb.Acquire(ty, busy)
				if okA != okB {
					t.Fatalf("seed %d cycle %d: fabrics diverged on Acquire", seed, cycle)
				}
			}
			req := pool[rng.Intn(len(pool))]
			slots := fa.Allocation().Slots
			want := m.Target(req).Layout
			key, packable := packDemandKey(req, slots)
			e := &m.cache[demandCacheIndex(key)]
			current := m.cacheHysteresis == m.Hysteresis
			before := m.cache
			if packable && req.Total() > 0 {
				lookups++
				if e.key == key+1 && current {
					hits++
				}
			}

			m.Step(req)
			uncachedDemandStep(twin, req)

			switch {
			case req.Total() == 0:
			case !packable:
				if current && m.cache != before {
					t.Fatalf("seed %d cycle %d: demand %v past the packed range wrote the cache", seed, cycle, req)
				}
			case e.key != key+1:
				t.Fatalf("seed %d cycle %d: target for %v on %v not cached", seed, cycle, req, slots)
			case e.target != want:
				t.Fatalf("seed %d cycle %d (hysteresis %d): cached target %v, uncached %v for %v on %v",
					seed, cycle, m.Hysteresis, e.target, want, req, slots)
			}
			if fa.Allocation() != fb.Allocation() {
				t.Fatalf("seed %d cycle %d: layouts diverged: %v vs %v", seed, cycle, fa.Allocation().Slots, fb.Allocation().Slots)
			}
			if m.Syntheses != twin.Syntheses || m.Reconfigurations != twin.Reconfigurations || m.DeferredSlots != twin.DeferredSlots {
				t.Fatalf("seed %d cycle %d: counters %d/%d/%d, uncached twin %d/%d/%d", seed, cycle,
					m.Syntheses, m.Reconfigurations, m.DeferredSlots,
					twin.Syntheses, twin.Reconfigurations, twin.DeferredSlots)
			}
			fa.Tick()
			fb.Tick()
		}
		if m.Reconfigurations == 0 || m.DeferredSlots == 0 {
			t.Errorf("seed %d: the sequence never reconfigured (%d) or deferred (%d)", seed, m.Reconfigurations, m.DeferredSlots)
		}
	}
	if hits == 0 || hits == lookups {
		t.Errorf("cache hit %d of %d lookups; the test must exercise both paths", hits, lookups)
	}
}
