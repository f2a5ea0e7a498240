package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/fault"
)

// sim-long inputs. The long programs alternate between the integer- and
// FP-heavy mixes; the prefetch run uses a reconfiguration latency at
// which its predictor takes part (16 x latency > phase length).
const (
	longLen         = 200_000
	longPeriod      = 2000
	prefetchLatency = 128
	shortLen        = 20_000
	faultRate       = 2e-3
)

var branchyKernels = []string{"sort", "strsearch", "recfib", "mandel", "matmul"}

// simLong runs a fixed round of simulations in-process on one goroutine,
// over and over.
type simLong struct {
	round []*op
	first []*outcome // each op's first outcome; later rounds must match it
}

func newSimLong(c cfg) (*simLong, error) {
	rng := rand.New(rand.NewSource(c.seed))
	synth := func(n int) repro.Program {
		return repro.Synthesize(repro.AlternatingPhases(n, longPeriod), rng.Int63())
	}
	prefetch := repro.DefaultParams()
	prefetch.ReconfigLatency = prefetchLatency
	split := repro.DefaultParams()
	split.Cores, split.ClusterMode = 2, "split"
	faulty := repro.DefaultParams()
	faulty.FaultTransientRate, faulty.FaultSeed = faultRate, rng.Int63()
	faulty.FaultScrubInterval = fault.DefaultScrubInterval

	b := &simLong{round: []*op{
		{name: "long/steering", prog: synth(longLen), straight: true},
		{name: "long/prefetch", prog: synth(longLen), straight: true,
			spec: api.RunSpec{Policy: repro.PolicyPrefetch, Params: prefetch}},
	}}
	for _, name := range branchyKernels {
		k := repro.KernelByName(name)
		if k == nil {
			return nil, fmt.Errorf("kernel %q not found", name)
		}
		prog, err := repro.Assemble(k.Source)
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", name, err)
		}
		b.round = append(b.round, &op{name: "kernel/" + name, prog: prog, source: k.Source, kernel: k})
	}
	b.round = append(b.round,
		&op{name: "cluster/k2-split", prog: synth(shortLen), straight: true, spec: api.RunSpec{Params: split}},
		&op{name: "fault/steering", prog: synth(shortLen), straight: true, spec: api.RunSpec{Params: faulty}},
	)
	b.first = make([]*outcome, len(b.round))
	return b, nil
}

func (b *simLong) window(d time.Duration, tr *tracer) *window {
	w := newWindow("rounds")
	w.aliases = map[string]string{"sims_per_s": "ops_per_s", "round_p50_ms": "lat_p50_ms", "round_p90_ms": "lat_p90_ms"}
	w.begin()
	type done struct {
		i   int
		out outcome
		err error
	}
	var results []done
	for time.Since(w.start) < d {
		start := time.Now()
		var retired int64
		for i, o := range b.round {
			out, err := simulate(o, tr)
			retired += int64(out.Stats.Retired)
			results = append(results, done{i, out, err})
		}
		w.done(time.Since(w.start), len(b.round), retired, time.Since(start))
	}
	w.end()
	for _, r := range results {
		w.ops++
		switch {
		case r.err != nil:
			w.fail(r.err)
		case b.first[r.i] == nil:
			b.first[r.i] = &r.out
		case !b.first[r.i].equal(r.out):
			w.fail(fmt.Errorf("%s: simulated counts changed between runs of the same input", b.round[r.i].name))
		}
	}
	return w
}

func (b *simLong) refOps() []*op { return b.round }
func (b *simLong) close() error  { return nil }
