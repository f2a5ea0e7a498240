package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// poisonProbe touches every latency class — integer ALU, multiply and
// divide, loads and stores, FP add, multiply, divide and square root —
// so a bad entry in any Latencies field reaches the wake-up array.
const poisonProbe = `
	li r1, 50
	li r2, 3
	fcvt.s.w f1, r1
loop:	mul r3, r1, r2
	div r4, r3, r2
	sw r4, 0(r0)
	lw r5, 0(r0)
	fadd f2, f1, f1
	fmul f3, f2, f1
	fdiv f4, f3, f1
	fsqrt f5, f4
	addi r1, r1, -1
	bne r1, r0, loop
	halt
`

// drawSize draws one sizing field: mostly zero (the default), otherwise
// small, a power of two, odd, or negative.
func drawSize(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 4:
		return 1 + rng.Intn(8)
	case 5:
		return 1 << rng.Intn(11)
	case 6:
		return 2*rng.Intn(50) + 1
	case 7:
		return -1 - rng.Intn(4)
	default:
		return 0
	}
}

// drawLatencies draws an all-zero table (the defaults), the default
// table, or a partial one whose entries may be zero or negative.
func drawLatencies(rng *rand.Rand) isa.Latencies {
	switch rng.Intn(3) {
	case 0:
		return isa.Latencies{}
	case 1:
		return isa.DefaultLatencies()
	}
	entry := func() int { return rng.Intn(8) - 1 }
	return isa.Latencies{
		IntALU: entry(), IntMul: entry(), IntDiv: entry(), Load: entry(), Store: entry(),
		FPALU: entry(), FPMul: entry(), FPDiv: entry(), FPSqrt: entry(),
	}
}

// drawParams draws one random parameter set over every field a request
// can set.
func drawParams(rng *rand.Rand) repro.Params {
	p := repro.Params{
		WindowSize:           drawSize(rng),
		DispatchWidth:        drawSize(rng),
		IssueWidth:           drawSize(rng),
		RetireWidth:          drawSize(rng),
		ReconfigLatency:      drawSize(rng),
		ConfigBusWidth:       drawSize(rng),
		Latencies:            drawLatencies(rng),
		MemBytes:             drawSize(rng),
		CacheSets:            drawSize(rng),
		CacheLineBytes:       drawSize(rng),
		CacheMissPenalty:     drawSize(rng),
		PredictorEntries:     drawSize(rng),
		GshareHistoryBits:    uint(rng.Intn(70)),
		TraceCacheLines:      drawSize(rng),
		TraceCacheLineLen:    drawSize(rng),
		FetchWidthMem:        drawSize(rng),
		FetchWidthTC:         drawSize(rng),
		DisableFFUs:          rng.Intn(4) == 0,
		IssueOrder:           cpu.IssueOrder(rng.Intn(4)),
		ManagerLookahead:     rng.Intn(2) == 0,
		SelectFree:           rng.Intn(2) == 0,
		PrefetchHistoryDepth: drawSize(rng),
		PrefetchConfidence:   rng.Float64() * 1.2,
		Cores:                rng.Intn(4),
		ClusterMode:          []string{"", "merged", "split"}[rng.Intn(3)],
		ClusterArbiter:       []string{"", "round-robin", "demand-weighted"}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		p.FaultTransientRate = rng.Float64() * 0.02
		p.FaultPermanentRate = rng.Float64() * 0.002
		p.FaultSeed = rng.Int63()
		p.FaultScrubInterval = drawSize(rng)
	}
	return p
}

// buildAndRun builds the machine rssd would build for the spec — the
// scalar machine, or a cluster when Cores > 1 — and runs it briefly.
func buildAndRun(prog repro.Program, opt repro.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if opt.Params.Cores > 1 {
		cluster.New(prog, opt).RunContext(context.Background(), 5000) //nolint:errcheck // only panics matter
		return nil
	}
	repro.NewMachine(prog, opt).RunContext(context.Background(), 5000) //nolint:errcheck
	return nil
}

// TestValidateImpliesBuildable is the poison-spec property: every
// parameter set Params.Validate accepts builds and runs under every
// policy without panicking. A spec that passes Validate and then
// panics would take rssd down as a job point.
func TestValidateImpliesBuildable(t *testing.T) {
	prog := repro.MustAssemble(poisonProbe)
	policies := repro.Policies()
	rng := rand.New(rand.NewSource(15))
	valid := 0
	for i := 0; i < 20000; i++ {
		p := drawParams(rng)
		if p.Validate() != nil {
			continue
		}
		valid++
		opt := repro.Options{Params: p, Policy: policies[rng.Intn(len(policies))], Seed: rng.Int63()}
		if err := buildAndRun(prog, opt); err != nil {
			t.Fatalf("draw %d: Validate accepted %+v under %v, then: %v", i, p, opt.Policy, err)
		}
	}
	if valid < 100 {
		t.Errorf("only %d of the draws passed Validate; the property is barely exercised", valid)
	}
	t.Logf("%d draws passed Validate and ran", valid)
}

// TestOptionsValidate pins the one spec check rssd and rsssim share:
// each rule rejects with the sentinel its service error code maps from,
// and a valid spec — cluster fields and a sized fault campaign included
// — passes.
func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  repro.Options
		want error // nil: valid
	}{
		{"negative MinResidency", repro.Options{MinResidency: -5}, repro.ErrInvalidParams},
		{"fault rate with scrub interval 0", repro.Options{Params: repro.Params{FaultTransientRate: 0.01}}, repro.ErrInvalidParams},
		{"policy out of range", repro.Options{Policy: repro.Policy(len(repro.Policies()))}, repro.ErrUnknownPolicy},
		{"negative policy", repro.Options{Policy: -1}, repro.ErrUnknownPolicy},
		{"Cores 9", repro.Options{Params: repro.Params{Cores: 9}}, repro.ErrInvalidParams},
		{"unknown cluster mode", repro.Options{Params: repro.Params{Cores: 2, ClusterMode: "sideways"}}, repro.ErrInvalidParams},
		{"valid spec", repro.Options{
			Policy:       repro.PolicyOracle,
			MinResidency: 64,
			Params: repro.Params{
				Cores: 2, ClusterMode: "split", ClusterArbiter: "demand-weighted",
				FaultTransientRate: 0.01, FaultScrubInterval: 64,
			},
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want an error wrapping %v", err, tc.want)
			}
		})
	}
}
