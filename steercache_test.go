// Equivalence tests for the packed-key steering cache: a cache hit
// must replay exactly the decision the CEM generators would have
// produced, so runs with the cache enabled and disabled are
// bit-identical — same per-cycle selections, same reconfigurations,
// same final fabric layout, same architectural stats — across the
// X1-X6 experiment workloads.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/rfu"
	"repro/internal/workload"
)

// runSteering executes prog under a steering manager over basis and
// returns the processor stats, the manager stats and the final fabric
// allocation. disableCache switches the packed-key cache off so the
// CEM generators run on every selection.
func runSteering(t *testing.T, prog isa.Program, params cpu.Params, basis [arch.NumConfigs - 1]config.Configuration, exact, disableCache bool) (cpu.Stats, core.Stats, config.AllocationVector) {
	t.Helper()
	p := cpu.New(prog, params, nil)
	m := core.NewManager(p.Fabric(), basis)
	m.ExactCEM = exact
	m.DisableCache = disableCache
	p.SetManager(&baseline.Steering{M: m})
	st, err := p.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st, m.Stats(), p.Fabric().Allocation()
}

// stripCacheCounters zeroes the cache-effectiveness counters, which are
// the only manager stats allowed to differ between cached and uncached
// runs.
func stripCacheCounters(s core.Stats) core.Stats {
	s.CacheHits = 0
	s.CacheMisses = 0
	return s
}

func checkEquivalent(t *testing.T, prog isa.Program, params cpu.Params, basis [arch.NumConfigs - 1]config.Configuration, exact bool) {
	t.Helper()
	cachedCPU, cachedMgr, cachedAlloc := runSteering(t, prog, params, basis, exact, false)
	plainCPU, plainMgr, plainAlloc := runSteering(t, prog, params, basis, exact, true)

	if cachedCPU != plainCPU {
		t.Errorf("processor stats diverge:\n  cached:   %+v\n  uncached: %+v", cachedCPU, plainCPU)
	}
	if got, want := stripCacheCounters(cachedMgr), stripCacheCounters(plainMgr); got != want {
		t.Errorf("manager stats diverge:\n  cached:   %+v\n  uncached: %+v", got, want)
	}
	if cachedAlloc.Slots != plainAlloc.Slots {
		t.Errorf("final fabric layouts diverge:\n  cached:   %v\n  uncached: %v", cachedAlloc.Slots, plainAlloc.Slots)
	}

	// The cache must actually have been exercised, and every selection
	// accounted as exactly one lookup; the uncached run must never touch
	// it.
	selections := 0
	for _, n := range cachedMgr.Selections {
		selections += n
	}
	if lookups := cachedMgr.CacheHits + cachedMgr.CacheMisses; lookups != selections {
		t.Errorf("cache lookups (%d) != selections (%d)", lookups, selections)
	}
	if cachedMgr.CacheHits == 0 {
		t.Errorf("cached run recorded no hits over %d selections; cache is inert", selections)
	}
	if plainMgr.CacheHits != 0 || plainMgr.CacheMisses != 0 {
		t.Errorf("uncached run recorded lookups: %d hits, %d misses", plainMgr.CacheHits, plainMgr.CacheMisses)
	}
}

// TestSteeringCacheEquivalence replays the X1-X6 full-machine
// workloads (the same phase mixes, seeds and parameter points as
// bench_test.go) with the steering cache on and off.
func TestSteeringCacheEquivalence(t *testing.T) {
	x1 := workload.Synthesize([]workload.Phase{
		{Mix: workload.MixIntHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
		{Mix: workload.MixMemHeavy, Instructions: 500},
		{Mix: workload.MixFPHeavy, Instructions: 500},
	}, workload.SynthParams{Seed: 7})
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
	fpRich := [arch.NumConfigs - 1]config.Configuration{
		config.MustNew("fp-a", arch.FPALU, arch.FPMDU, arch.IntALU, arch.LSU),
		config.MustNew("fp-b", arch.FPMDU, arch.FPMDU, arch.IntALU, arch.LSU),
		config.MustNew("fp-c", arch.FPALU, arch.FPALU, arch.IntALU, arch.LSU),
	}

	cases := []struct {
		name   string
		prog   isa.Program
		params func() cpu.Params
		basis  [arch.NumConfigs - 1]config.Configuration
		exact  bool
	}{
		{name: "X1Phased", prog: x1, params: cpu.DefaultParams, basis: config.DefaultBasis()},
		{name: "X2ReconfigLatency64", prog: x2, params: func() cpu.Params {
			p := cpu.DefaultParams()
			p.ReconfigLatency = 64
			return p
		}, basis: config.DefaultBasis()},
		{name: "X3ExactCEM", prog: x1, params: cpu.DefaultParams, basis: config.DefaultBasis(), exact: true},
		{name: "X4NoFFU", prog: x4, params: func() cpu.Params {
			p := cpu.DefaultParams()
			p.DisableFFUs = true
			return p
		}, basis: config.DefaultBasis()},
		{name: "X5Window16", prog: x5, params: func() cpu.Params {
			p := cpu.DefaultParams()
			p.WindowSize = 16
			return p
		}, basis: config.DefaultBasis()},
		{name: "X6FPRichBasis", prog: x6, params: cpu.DefaultParams, basis: fpRich},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkEquivalent(t, tc.prog, tc.params(), tc.basis, tc.exact)
		})
	}
}

// TestSteeringCacheSelectionStream drives two managers (cache on/off)
// over the same pseudo-random demand stream, fabric ticks interleaved,
// and asserts every Selection — choice, all four errors, all four
// distances, the echoed requirement vector — is identical, for both
// the approximate and the exact CEM (X3's ablation axis).
func TestSteeringCacheSelectionStream(t *testing.T) {
	for _, exact := range []bool{false, true} {
		name := "approx"
		if exact {
			name = "exact"
		}
		t.Run(name, func(t *testing.T) {
			cachedFabric, plainFabric := rfu.New(8), rfu.New(8)
			cached := core.NewManager(cachedFabric, config.DefaultBasis())
			plain := core.NewManager(plainFabric, config.DefaultBasis())
			cached.ExactCEM = exact
			plain.ExactCEM = exact
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
					t.Fatalf("step %d: selections diverge for demand %v:\n  cached:   %+v\n  uncached: %+v", i, d, a, b)
				}
				cachedFabric.Tick()
				plainFabric.Tick()
			}
			if cached.Stats().CacheHits == 0 {
				t.Error("cached manager recorded no hits over 5000 selections")
			}
		})
	}
}

// runPrefetch executes prog under the prefetch policy and returns the
// processor stats, the wrapped manager's stats and the final fabric
// allocation, with the steering cache on or off.
func runPrefetch(t *testing.T, prog isa.Program, params cpu.Params, disableCache bool) (cpu.Stats, core.Stats, config.AllocationVector) {
	t.Helper()
	p := cpu.New(prog, params, nil)
	m := predict.NewManagerBasis(p.Fabric(), config.DefaultBasis(), predict.Config{})
	m.Core().DisableCache = disableCache
	p.SetManager(m)
	st, err := p.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st, m.Core().Stats(), p.Fabric().Allocation()
}

// TestSteeringCacheEquivalenceWithPrefetch extends the equivalence
// property to the prefetch policy: speculative loads mutate the fabric
// allocation — which is part of the packed cache key — so a cached run
// must still replay exactly the uncached decisions when the predictor
// is live. The latency is high enough that speculations actually fire
// (the X20 regime), exercising hold suppression and claw-back paths
// under both cache settings.
func TestSteeringCacheEquivalenceWithPrefetch(t *testing.T) {
	prog := workload.Synthesize(workload.AlternatingPhases(4000, 500), workload.SynthParams{Seed: 7})
	params := cpu.DefaultParams()
	params.ReconfigLatency = 128

	cachedCPU, cachedMgr, cachedAlloc := runPrefetch(t, prog, params, false)
	plainCPU, plainMgr, plainAlloc := runPrefetch(t, prog, params, true)

	if cachedCPU != plainCPU {
		t.Errorf("processor stats diverge:\n  cached:   %+v\n  uncached: %+v", cachedCPU, plainCPU)
	}
	if got, want := stripCacheCounters(cachedMgr), stripCacheCounters(plainMgr); got != want {
		t.Errorf("manager stats diverge:\n  cached:   %+v\n  uncached: %+v", got, want)
	}
	if cachedAlloc.Slots != plainAlloc.Slots {
		t.Errorf("final fabric layouts diverge:\n  cached:   %v\n  uncached: %v", cachedAlloc.Slots, plainAlloc.Slots)
	}
	if cachedMgr.PrefetchIssued == 0 {
		t.Error("no speculative spans issued; the equivalence run did not exercise prefetch")
	}
	if cachedMgr.CacheHits == 0 {
		t.Error("cached run recorded no hits; cache is inert")
	}
}

// TestPrefetchInertMatchesSteering pins the disabled-predictor
// determinism property: when anticipation never engages (cheap
// reconfiguration keeps the participation gate closed), a prefetch-
// policy run is bit-identical to plain steering — same architectural
// stats, same selection stream, same final fabric.
func TestPrefetchInertMatchesSteering(t *testing.T) {
	prog := workload.Synthesize(workload.AlternatingPhases(3000, 250), workload.SynthParams{Seed: 7})
	params := cpu.DefaultParams() // latency 8: 16*8 << phase length, gate closed

	preCPU, preMgr, preAlloc := runPrefetch(t, prog, params, false)
	steerCPU, steerMgr, steerAlloc := runSteering(t, prog, params, config.DefaultBasis(), false, false)

	if preMgr.PrefetchIssued != 0 || preMgr.HeldLoads != 0 {
		t.Fatalf("predictor was not inert: %d spans issued, %d held loads",
			preMgr.PrefetchIssued, preMgr.HeldLoads)
	}
	if preCPU != steerCPU {
		t.Errorf("processor stats diverge:\n  prefetch: %+v\n  steering: %+v", preCPU, steerCPU)
	}
	// The prefetch run's extra counters (phase changes) are its own;
	// everything the steering manager also tracks must match.
	preMgr.PhaseChanges = 0
	steerMgr.PhaseChanges = 0
	if preMgr != steerMgr {
		t.Errorf("manager stats diverge:\n  prefetch: %+v\n  steering: %+v", preMgr, steerMgr)
	}
	if preAlloc.Slots != steerAlloc.Slots {
		t.Errorf("final fabric layouts diverge:\n  prefetch: %v\n  steering: %v", preAlloc.Slots, steerAlloc.Slots)
	}
}
