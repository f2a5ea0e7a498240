// Tests for the observer stream (internal/obs): every configuration
// policy reaches the one sink through the fabric, its events agree with
// the machine's own counters, and observing never changes a run.
package repro_test

import (
	"bytes"
	"errors"
	"testing"

	"repro"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// countingSink tallies the events the machine's counters can be checked
// against.
type countingSink struct {
	obs.Nop
	cycles, runEnds, retired, issued, squashed, stalls int
	reconfigs, scrubs, masked                          int
	faults                                             [obs.FaultDead + 1]int
}

func (c *countingSink) BeginCycle(int, int)                 { c.cycles++ }
func (c *countingSink) RunEnd()                             { c.runEnds++ }
func (c *countingSink) Retire(uint64, uint32)               { c.retired++ }
func (c *countingSink) Issue(uint64, uint32, isa.Inst, int) { c.issued++ }
func (c *countingSink) Squash(uint64, uint32, isa.Inst)     { c.squashed++ }
func (c *countingSink) DispatchStall()                      { c.stalls++ }
func (c *countingSink) ReconfigStart(obs.Reconfig)          { c.reconfigs++ }
func (c *countingSink) Fault(_ int, kind obs.FaultKind)     { c.faults[kind]++ }
func (c *countingSink) ScrubScan()                          { c.scrubs++ }
func (c *countingSink) MaskedSlotCycles(n int)              { c.masked += n }

// TestEveryPolicyDeliversItsEvents attaches one counting sink under
// every policy on the X1-X6 workload shapes with fault injection on,
// and checks the event counts against the run's statistics and a run
// with no sink attached.
func TestEveryPolicyDeliversItsEvents(t *testing.T) {
	// Static and FFU-only policies may starve (X4 hides the FFUs), so
	// the budget is modest and a cycle-limit outcome is compared like
	// any other.
	const maxCycles = 200_000
	for _, tc := range faultCases() {
		for _, name := range cpu.PolicyNames() {
			policy, err := repro.ParsePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				run := func(sink obs.Sink) (*repro.Machine, error) {
					m := repro.NewMachine(tc.prog, repro.Options{Params: tc.params(), Policy: policy})
					if sink != nil {
						m.Processor().SetSink(sink)
					}
					_, err := m.Run(maxCycles)
					if err != nil && !errors.Is(err, repro.ErrCycleLimit) {
						t.Fatal(err)
					}
					return m, err
				}
				c := &countingSink{}
				m, err := run(c)
				bare, bareErr := run(nil)

				got, want := m.Stats(), bare.Stats()
				if got != want || (err == nil) != (bareErr == nil) {
					t.Fatalf("stats with a sink differ from a bare run:\n%+v\n%+v", got, want)
				}
				gotJSON, _ := m.ReportJSON()
				wantJSON, _ := bare.ReportJSON()
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("report with a sink differs from a bare run:\n%s\n%s", gotJSON, wantJSON)
				}

				issued := 0
				for _, n := range got.IssuedByType {
					issued += n
				}
				runEnds := 0
				if got.Halted {
					runEnds = 1
				}
				fab := m.Processor().Fabric()
				fs := fab.FaultStats()
				for _, chk := range []struct {
					what      string
					got, want int
				}{
					{"cycles", c.cycles, got.Cycles},
					{"run ends", c.runEnds, runEnds},
					{"retired", c.retired, got.Retired},
					{"issued", c.issued, issued},
					{"squashed", c.squashed, got.Flushed},
					{"dispatch stalls", c.stalls, got.DispatchStallFull},
					{"reconfig starts", c.reconfigs, fab.Reconfigurations()},
					{"injected transient", c.faults[obs.FaultInjectedTransient], fs.InjectedTransient},
					{"injected permanent", c.faults[obs.FaultInjectedPermanent], fs.InjectedPermanent},
					{"detected", c.faults[obs.FaultDetected], fs.Detected},
					{"repairs started", c.faults[obs.FaultRepairStart], fs.RepairsStarted},
					{"repaired", c.faults[obs.FaultRepaired], fs.Repaired},
					{"healed by load", c.faults[obs.FaultHealed], fs.HealedByLoad},
					{"dead", c.faults[obs.FaultDead], fs.DeadSlots},
					{"scrub scans", c.scrubs, fs.ScrubScans},
					{"masked slot-cycles", c.masked, fs.MaskedSlotCycles},
				} {
					if chk.got != chk.want {
						t.Errorf("%s: %d events, machine counted %d", chk.what, chk.got, chk.want)
					}
				}
				if fs.InjectedTransient+fs.InjectedPermanent == 0 {
					t.Error("campaign injected no faults; the fault events went unchecked")
				}
			})
		}
	}
}
