// Package baseline provides the configuration-management strategies the
// steering manager is compared against in the experiments:
//
//   - Steering: the paper's manager (package core) adapted to the
//     processor's Policy interface;
//   - Static: never reconfigures — a conventional fixed-unit superscalar
//     whose RFU contents are installed before time starts;
//   - FullReconfig: the predecessor approach of reference [7], which
//     swaps whole configurations and therefore must wait for the entire
//     fabric to drain before reconfiguring;
//   - Oracle: an idealised upper bound that scores candidates with the
//     exact divider and is intended to run on a zero-latency fabric;
//   - Random: a control that loads a random steering configuration at a
//     fixed period.
package baseline

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rfu"
)

// Steering adapts the paper's configuration manager to cpu.Manager.
type Steering struct {
	M *core.Manager
}

// NewSteeringBasis builds the paper's steering policy over a fabric
// with the given basis (config.DefaultBasis for the paper's Table 1).
func NewSteeringBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *Steering {
	return &Steering{M: core.NewManager(fabric, basis)}
}

// Manage runs one selection/load cycle of the steering manager.
func (s *Steering) Manage(required arch.Counts) { s.M.Step(required) }

// Static is the no-reconfiguration baseline; the machine keeps whatever
// the fabric was preloaded with (see rfu.Fabric.Install).
type Static struct{}

// Manage does nothing.
func (Static) Manage(arch.Counts) {}

// FullReconfig models the architecture of reference [7] without partial
// reconfiguration: a chosen configuration is loaded in one piece, which
// requires every reconfigurable slot to be idle, and replaces the whole
// fabric.
type FullReconfig struct {
	fabric *rfu.Fabric
	m      *core.Manager
	// pending is the configuration currently being swapped in. A swap
	// begins only on a drained fabric but its spans may stream over
	// several cycles when the configuration bus is narrow; selection is
	// frozen until the swap completes.
	pending *config.Configuration

	// Swaps counts whole-fabric reconfigurations completed.
	Swaps int
	// Blocked counts cycles a wanted swap waited for the fabric to
	// drain.
	Blocked int

	// unitsScratch is the reusable placement buffer for stream.
	unitsScratch []config.PlacedUnit
}

// NewFullReconfigBasis builds the whole-configuration-swap policy over
// the given basis.
func NewFullReconfigBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *FullReconfig {
	return &FullReconfig{fabric: fabric, m: core.NewManager(fabric, basis)}
}

// Manage selects like the steering manager but loads atomically: a swap
// starts only when a predefined configuration wins and the fabric is
// fully drained, then the whole layout is rewritten — streamed across
// cycles when the configuration bus limits concurrent spans.
func (f *FullReconfig) Manage(required arch.Counts) {
	if f.pending != nil {
		f.stream()
		return
	}
	var sel core.Selection
	f.m.Select(required, &sel)
	sink := f.fabric.Sink()
	if sink != nil {
		sink.Selection(sel.Errors, sel.Choice)
	}
	if sel.Current() {
		return
	}
	if !f.fabric.Idle() {
		f.Blocked++
		return
	}
	target := f.m.Basis()[sel.Choice-1]
	if f.fabric.Allocation().Slots == target.Layout {
		return
	}
	if sink != nil {
		diff := f.fabric.Allocation().Distance(target)
		sink.ConfigSwitch(obs.Decision{
			From:            f.m.Classify(),
			To:              target.Name,
			Choice:          sel.Choice,
			DiffSlots:       diff,
			SlotsLoading:    diff,
			StallSlotCycles: diff * f.fabric.ReconfigLatency(),
		})
	}
	f.pending = &target
	f.stream()
}

// Core exposes the wrapped selection unit (for its stats).
func (f *FullReconfig) Core() *core.Manager { return f.m }

// stream pushes the pending swap's remaining spans through the
// configuration bus, completing the swap when the layout matches.
func (f *FullReconfig) stream() {
	target := *f.pending
	f.unitsScratch = target.AppendUnits(f.unitsScratch[:0])
	for _, u := range f.unitsScratch {
		if f.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue
		}
		if f.fabric.CanReconfigure(u.Type, u.Slot) {
			f.fabric.Reconfigure(u.Type, u.Slot)
		}
	}
	if f.fabric.Allocation().Slots == target.Layout {
		f.pending = nil
		f.Swaps++
	}
}

// Oracle is the idealised selector: exact-divider error metrics over the
// same basis, intended for a zero-reconfiguration-latency fabric, giving
// an upper bound on what configuration matching can achieve.
type Oracle struct {
	m *core.Manager
}

// NewOracleBasis builds the oracle policy over the given basis.
func NewOracleBasis(fabric *rfu.Fabric, basis [3]config.Configuration) *Oracle {
	m := core.NewManager(fabric, basis)
	m.ExactCEM = true
	return &Oracle{m: m}
}

// Core exposes the wrapped steering manager (for its stats).
func (o *Oracle) Core() *core.Manager { return o.m }

// Manage runs one exact-metric selection/load cycle.
func (o *Oracle) Manage(required arch.Counts) { o.m.Step(required) }

// Random loads a random steering configuration every Period cycles — the
// control showing that steering's wins come from matching, not from
// reconfiguration activity itself.
type Random struct {
	fabric *rfu.Fabric
	basis  [3]config.Configuration
	rng    *rand.Rand
	// Period is the number of cycles between random loads (default 64).
	Period int

	cycle        int
	unitsScratch []config.PlacedUnit
}

// NewRandom builds the random policy with a deterministic seed.
func NewRandom(fabric *rfu.Fabric, seed int64) *Random {
	return &Random{
		fabric: fabric,
		basis:  config.DefaultBasis(),
		rng:    rand.New(rand.NewSource(seed)),
		Period: 64,
	}
}

// Manage loads a random configuration when the period elapses,
// reconfiguring whatever spans are idle (partial, like steering, but
// without looking at the queue).
func (r *Random) Manage(arch.Counts) {
	r.cycle++
	if r.Period <= 0 || r.cycle%r.Period != 0 {
		return
	}
	target := r.basis[r.rng.Intn(len(r.basis))]
	r.unitsScratch = target.AppendUnits(r.unitsScratch[:0])
	for _, u := range r.unitsScratch {
		if r.fabric.Allocation().Slots[u.Slot] == arch.Encode(u.Type) {
			continue
		}
		if r.fabric.CanReconfigure(u.Type, u.Slot) {
			r.fabric.Reconfigure(u.Type, u.Slot)
		}
	}
}
