// Tests for fault injection and degraded-mode operation at the
// full-machine level: determinism of the seeded upset stream, the
// never-dispatch-to-a-faulty-slot safety property across the X1-X6
// workloads, and cached/uncached steering equivalence when the health
// masks join the cache key.
package repro_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/rfu"
	"repro/internal/workload"
)

// faultParams is the reference fault campaign of these tests: rates high
// enough to exercise the whole state machine in a few thousand cycles.
func faultParams() repro.Params {
	p := repro.DefaultParams()
	p.FaultTransientRate = 0.001
	p.FaultPermanentRate = 0.0001
	p.FaultSeed = 1234
	p.FaultScrubInterval = 32
	return p
}

// phasedProgram is the X1-style phase-changing workload the fault tests
// run, long enough for upsets, scrubs and repairs to interleave with
// steering.
func phasedProgram() repro.Program {
	return workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}, workload.SynthParams{Seed: 7})
}

// faultRun executes one seeded fault campaign and returns the telemetry
// JSONL stream (samples, decisions and fault events), the human report
// and the fault counters.
func faultRun(t *testing.T) (jsonl []byte, report string, stats repro.FaultStats) {
	t.Helper()
	m := repro.NewMachine(phasedProgram(), repro.Options{
		Params: faultParams(),
		Policy: repro.PolicySteering,
	})
	var buf bytes.Buffer
	if _, err := m.EnableTelemetry(&buf, "jsonl", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	fs, ok := m.FaultStats()
	if !ok {
		t.Fatal("FaultStats not ok with fault injection enabled")
	}
	return buf.Bytes(), m.Report(), fs
}

// TestFaultDeterminism: the same fault seed and workload reproduce the
// run bit-for-bit — byte-identical telemetry JSONL (fault events
// included) and an identical final report.
func TestFaultDeterminism(t *testing.T) {
	jsonlA, reportA, statsA := faultRun(t)
	jsonlB, reportB, statsB := faultRun(t)
	if !bytes.Equal(jsonlA, jsonlB) {
		t.Error("telemetry JSONL streams differ between identically seeded fault runs")
	}
	if reportA != reportB {
		t.Errorf("reports differ between identically seeded fault runs:\n--- A\n%s--- B\n%s", reportA, reportB)
	}
	if statsA != statsB {
		t.Errorf("fault stats differ: %+v vs %+v", statsA, statsB)
	}
	if statsA.InjectedTransient == 0 {
		t.Error("campaign injected no transient faults; the test exercises nothing")
	}
	if !bytes.Contains(jsonlA, []byte(`"record":"fault"`)) {
		t.Error("telemetry stream contains no fault records")
	}
}

// faultCase is one X1-X6 workload shape under a fault campaign.
type faultCase struct {
	name   string
	prog   repro.Program
	params func() repro.Params
}

// faultCases returns the X1-X6 workload shapes with faults raining on
// the fabric.
func faultCases() []faultCase {
	x1 := phasedProgram()
	x2 := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 400},
		{Mix: workload.MixFPHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 7})
	x4 := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixFPHeavy, Instructions: 600},
	}, workload.SynthParams{Seed: 5})
	x5 := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixUniform, Instructions: 800},
	}, workload.SynthParams{Seed: 3})
	x6 := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixFPHeavy, Instructions: 400},
		{Mix: workload.MixIntHeavy, Instructions: 400},
	}, workload.SynthParams{Seed: 2})

	return []faultCase{
		{name: "X1Phased", prog: x1, params: faultParams},
		{name: "X2ReconfigLatency64", prog: x2, params: func() repro.Params {
			p := faultParams()
			p.ReconfigLatency = 64
			return p
		}},
		{name: "X4NoFFU", prog: x4, params: func() repro.Params {
			// Transient-only campaign: with the FFUs hidden, enough
			// permanent faults would retire the whole fabric and the
			// workload could never finish — dead slots are forever.
			p := faultParams()
			p.DisableFFUs = true
			p.FaultPermanentRate = 0
			return p
		}},
		{name: "X5Window16", prog: x5, params: func() repro.Params {
			p := faultParams()
			p.WindowSize = 16
			return p
		}},
		{name: "X6HighRate", prog: x6, params: func() repro.Params {
			p := faultParams()
			p.FaultTransientRate = 0.005
			p.FaultPermanentRate = 0.0005
			return p
		}},
	}
}

// TestFaultNeverDispatchesToFaultySlot is the safety property of
// degraded mode: across the X1-X6 workload shapes with faults raining
// on the fabric, execution only ever starts on healthy slots. Fault
// injection happens in the fabric tick, before issue, so any slot that
// transitions idle->busy during a cycle must be healthy when the cycle
// ends.
func TestFaultNeverDispatchesToFaultySlot(t *testing.T) {
	for _, tc := range faultCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := repro.NewMachine(tc.prog, repro.Options{
				Params: tc.params(),
				Policy: repro.PolicySteering,
			})
			fab := m.Processor().Fabric()
			var prevBusy [arch.NumRFUSlots]bool
			cycles := 0
			for !m.Halted() && cycles < 2_000_000 {
				m.Cycle()
				cycles++
				for s := 0; s < arch.NumRFUSlots; s++ {
					busy := fab.SlotBusy(s)
					if busy && !prevBusy[s] {
						// A unit headed at s started executing this
						// cycle; its whole span must be healthy.
						enc := fab.Allocation().Slots[s]
						ht, ok := arch.DecodeUnit(enc)
						if !ok {
							t.Fatalf("cycle %d: busy slot %d holds non-unit encoding %v", cycles, s, enc)
						}
						for q := s; q < s+arch.SlotCost(ht); q++ {
							if h := fab.Health(q); h != rfu.HealthHealthy {
								t.Fatalf("cycle %d: execution started on slot %d whose span slot %d is %v",
									cycles, s, q, h)
							}
						}
					}
					prevBusy[s] = busy
				}
			}
			if !m.Halted() {
				t.Fatalf("workload did not complete under faults within %d cycles", cycles)
			}
			if fs, _ := m.FaultStats(); fs.InjectedTransient+fs.InjectedPermanent == 0 {
				t.Logf("note: campaign injected no faults in %d cycles", cycles)
			}
		})
	}
}

// TestFaultSteeringCacheEquivalence: with the health masks folded into
// the packed cache key, cached and uncached steering stay bit-identical
// while faults mask and unmask slots mid-run.
func TestFaultSteeringCacheEquivalence(t *testing.T) {
	base := func() cpu.Params {
		p := faultParams()
		return p
	}
	highRate := func() cpu.Params {
		p := faultParams()
		p.FaultTransientRate = 0.005
		p.FaultPermanentRate = 0.0005
		return p
	}
	cases := []struct {
		name   string
		params func() cpu.Params
	}{
		{name: "BaseRates", params: base},
		{name: "HighRates", params: highRate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkEquivalent(t, phasedProgram(), tc.params(), config.DefaultBasis(), false)
		})
	}
}

// TestFaultSelectionStreamEquivalence mirrors the steering-cache
// selection-stream test with directed fault injection: two fabrics see
// the same upsets while cached and uncached managers must produce
// identical selections at every step.
func TestFaultSelectionStreamEquivalence(t *testing.T) {
	cachedFabric, plainFabric := rfu.New(8), rfu.New(8)
	for _, f := range []*rfu.Fabric{cachedFabric, plainFabric} {
		f.EnableFaults(fault.Plan{Seed: 77, TransientRate: 0.002, PermanentRate: 0.0002, ScrubInterval: 16})
		f.Install(config.DefaultBasis()[0])
	}
	cached := core.NewManager(cachedFabric, config.DefaultBasis())
	plain := core.NewManager(plainFabric, config.DefaultBasis())
	plain.DisableCache = true

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		var d arch.Counts
		left := arch.QueueSize
		for t := range d {
			v := rng.Intn(left + 1)
			d[t] = v
			left -= v
		}
		var a, b core.Selection
		cached.Select(d, &a)
		plain.Select(d, &b)
		if a != b {
			t.Fatalf("step %d: selections diverge for demand %v (masks %v vs %v):\n  cached:   %+v\n  uncached: %+v",
				i, d, maskPair(cachedFabric), maskPair(plainFabric), a, b)
		}
		// Occasionally land a directed upset on both fabrics so masked
		// and dead states definitely occur in the stream.
		if i%401 == 0 {
			slot := i / 401 % arch.NumRFUSlots
			perm := i%802 == 0
			cachedFabric.InjectFault(slot, perm)
			plainFabric.InjectFault(slot, perm)
		}
		cachedFabric.Tick()
		plainFabric.Tick()
	}
	if cached.Stats().CacheHits == 0 {
		t.Error("cached manager recorded no hits over 5000 selections")
	}
	if st := cachedFabric.FaultStats(); st.InjectedTransient+st.InjectedPermanent == 0 {
		t.Error("no faults landed in the selection stream")
	}
}

func maskPair(f *rfu.Fabric) [2]uint8 {
	u, d := f.HealthMasks()
	return [2]uint8{u, d}
}
