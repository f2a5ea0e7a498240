// Golden equivalence matrix for the cycle loop: every simulated number
// a run produces — the JSON report, the full configuration-manager
// stats, the fabric's busy cycles, and digests of a traced run's
// telemetry, span and pipeline-trace streams — over the kernel library
// under every reconfiguring policy family at three reconfiguration
// latencies, plus long phase programs, fault injection, both cluster
// modes and the scheduler/manager ablations. testdata/cycle_golden.json
// was recorded before the cycle-loop optimisations (operands bound at
// dispatch, the memoised steering step, settled stall cycles) and must
// never be regenerated to make them pass: a mismatch is a change in
// simulated behaviour.
//
// To record the matrix for a new checkout, delete the file and run
// go test -run TestCycleGoldenMatrix; the test writes it and fails.
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/workload"
)

const cycleGoldenPath = "testdata/cycle_golden.json"

// goldenRun is one machine's recorded outcome.
type goldenRun struct {
	Report     json.RawMessage `json:"report"`
	Core       *core.Stats     `json:"core,omitempty"`
	BusyCycles int             `json:"busyCycles"`
	Telemetry  string          `json:"telemetrySHA256"`
	Spans      string          `json:"spansSHA256"`
	Trace      string          `json:"traceSHA256,omitempty"`
}

// goldenCase builds and runs one matrix entry, returning one goldenRun
// per core (one for a scalar machine).
type goldenCase struct {
	name string
	run  func(traced bool) ([]goldenRun, error)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// scalarCase runs prog on one machine; tweak, when set, adjusts the
// machine after construction and may return a hook called once the
// given number of cycles has elapsed.
func scalarCase(name string, prog repro.Program, k *workload.Kernel, opt repro.Options,
	tweak func(m *repro.Machine) (at int, hook func())) goldenCase {
	return goldenCase{name: name, run: func(traced bool) ([]goldenRun, error) {
		m := repro.NewMachine(prog, opt)
		if k != nil && k.Setup != nil {
			k.Setup(m.Processor().Memory(), m.Processor().SetReg)
		}
		var tel, spans bytes.Buffer
		if traced {
			if _, err := m.EnableTelemetry(&tel, "jsonl", 64); err != nil {
				return nil, err
			}
			m.EnableSpans(repro.SpanConfig{})
			m.EnableTracing(4096)
		}
		at, hook := 0, func() {}
		if tweak != nil {
			at, hook = tweak(m)
		}
		if at > 0 {
			if _, err := m.Run(at); err != nil && !m.Halted() && m.Stats().Cycles < at {
				return nil, err
			}
			hook()
		}
		if _, err := m.Run(20_000_000); err != nil {
			return nil, err
		}
		g, err := machineRun(m)
		if err != nil {
			return nil, err
		}
		if traced {
			if err := m.Spans().WriteJSONL(&spans); err != nil {
				return nil, err
			}
			g.Telemetry, g.Spans, g.Trace = digest(tel.Bytes()), digest(spans.Bytes()), digest([]byte(m.TraceLog()))
		}
		return []goldenRun{g}, nil
	}}
}

// machineRun records one machine's untraced outcome fields.
func machineRun(m *repro.Machine) (goldenRun, error) {
	rep, err := m.ReportJSON()
	if err != nil {
		return goldenRun{}, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rep); err != nil {
		return goldenRun{}, err
	}
	g := goldenRun{Report: compact.Bytes(), BusyCycles: m.Processor().Fabric().BusyCycles()}
	if cm := repro.CoreManager(m); cm != nil {
		st := cm.Stats()
		g.Core = &st
	}
	return g, nil
}

// clusterCase runs prog on a K-core cluster.
func clusterCase(name string, prog repro.Program, opt repro.Options) goldenCase {
	return goldenCase{name: name, run: func(traced bool) ([]goldenRun, error) {
		c := cluster.New(prog, opt)
		var tel bytes.Buffer
		if traced {
			if err := c.EnableTelemetry(&tel, "jsonl", 64); err != nil {
				return nil, err
			}
			c.EnableSpans(repro.SpanConfig{})
		}
		if _, err := c.Run(20_000_000); err != nil {
			return nil, err
		}
		var out []goldenRun
		for k := 0; k < c.Cores(); k++ {
			g, err := machineRun(c.Core(k))
			if err != nil {
				return nil, err
			}
			if traced {
				var spans bytes.Buffer
				if err := c.Core(k).Spans().WriteJSONL(&spans); err != nil {
					return nil, err
				}
				g.Telemetry, g.Spans = digest(tel.Bytes()), digest(spans.Bytes())
			}
			out = append(out, g)
		}
		return out, nil
	}}
}

// cycleGoldenCases lists the matrix.
func cycleGoldenCases() []goldenCase {
	var cases []goldenCase
	policies := []repro.Policy{
		repro.PolicySteering, repro.PolicyPrefetch, repro.PolicyDemand, repro.PolicyRandom,
		repro.PolicyOracle, repro.PolicyFullReconfig, repro.PolicyStaticInteger, repro.PolicyNone,
	}
	for _, k := range repro.Kernels() {
		for _, pol := range policies {
			for _, lat := range []int{1, 8, 128} {
				params := repro.DefaultParams()
				params.ReconfigLatency = lat
				name := fmt.Sprintf("kernel/%s/%s/lat%d", k.Name, pol, lat)
				cases = append(cases, scalarCase(name, k.Program(), k, repro.Options{Params: params, Policy: pol, Seed: 3}, nil))
			}
		}
	}

	phases := repro.Synthesize(repro.AlternatingPhases(20_000, 2000), 11)
	lat128 := repro.DefaultParams()
	lat128.ReconfigLatency = 128
	for _, pol := range []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch} {
		cases = append(cases, scalarCase("phases20k/"+pol.String()+"/lat128", phases, nil,
			repro.Options{Params: lat128, Policy: pol}, nil))
	}

	faulty := repro.DefaultParams()
	faulty.FaultTransientRate, faulty.FaultPermanentRate = 2e-3, 1e-5
	faulty.FaultSeed, faulty.FaultScrubInterval = 17, fault.DefaultScrubInterval
	for _, pol := range []repro.Policy{repro.PolicySteering, repro.PolicyPrefetch} {
		cases = append(cases, scalarCase("fault/"+pol.String(), phases, nil, repro.Options{Params: faulty, Policy: pol}, nil))
	}

	for _, mode := range []string{"merged", "split"} {
		params := repro.DefaultParams()
		params.Cores, params.ClusterMode = 2, mode
		cases = append(cases, clusterCase("cluster/k2-"+mode, phases, repro.Options{Params: params}))
	}

	variant := func(name string, edit func(p *repro.Params, o *repro.Options)) {
		opt := repro.Options{Params: repro.DefaultParams()}
		edit(&opt.Params, &opt)
		cases = append(cases, scalarCase("variant/"+name, phases, nil, opt, nil))
	}
	variant("lookahead", func(p *repro.Params, _ *repro.Options) { p.ManagerLookahead = true })
	variant("select-free", func(p *repro.Params, _ *repro.Options) { p.SelectFree = true })
	variant("order-rotate", func(p *repro.Params, _ *repro.Options) { p.IssueOrder = cpu.OrderRotate })
	variant("min-residency16", func(_ *repro.Params, o *repro.Options) { o.MinResidency = 16 })
	variant("prefetch-min-residency16", func(_ *repro.Params, o *repro.Options) {
		o.Policy, o.MinResidency = repro.PolicyPrefetch, 16
	})

	// ExactCEM switched on mid-run flushes the steering cache and keeps
	// selecting with the exact metric from then on.
	cases = append(cases, scalarCase("variant/exact-cem", phases, nil, repro.Options{Params: repro.DefaultParams()},
		func(m *repro.Machine) (int, func()) {
			return 3000, func() { repro.CoreManager(m).ExactCEM = true }
		}))
	return cases
}

// TestCycleGoldenMatrix runs the matrix untraced and traced, checks the
// two agree on every simulated number (observers are pure), and
// compares each case with its recorded line in the golden file. The
// race detector slows the simulator about twelvefold, so a -race run
// checks every raceStride-th case; the plain run checks all of them.
func TestCycleGoldenMatrix(t *testing.T) {
	const raceStride = 10
	all := cycleGoldenCases()
	want := map[string]json.RawMessage{}
	data, err := os.ReadFile(cycleGoldenPath)
	record := os.IsNotExist(err) && !raceEnabled
	switch {
	case record:
	case err != nil:
		t.Fatal(err)
	default:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parsing %s: %v", cycleGoldenPath, err)
		}
		if len(want) != len(all) {
			t.Fatalf("%s holds %d cases, the matrix has %d", cycleGoldenPath, len(want), len(all))
		}
	}
	var cases []goldenCase
	for i, c := range all {
		if !raceEnabled || i%raceStride == 0 {
			cases = append(cases, c)
		}
	}

	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = runGoldenCase(cases[i])
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	lines := make([]string, len(cases))
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		key, _ := json.Marshal(c.name)
		lines[i] = string(key) + ": " + got[i]
		if !record && got[i] != string(want[c.name]) {
			t.Errorf("%s differs from %s:\n got: %s\nwant: %s", c.name, cycleGoldenPath, got[i], want[c.name])
		}
	}
	if record {
		sort.Strings(lines)
		doc := "{\n" + strings.Join(lines, ",\n") + "\n}\n"
		if err := os.MkdirAll(filepath.Dir(cycleGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cycleGoldenPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d cases); re-run to compare", cycleGoldenPath, len(cases))
	}
}

// runGoldenCase runs one case untraced and traced and returns its
// golden JSON: the untraced outcome plus the traced run's digests.
func runGoldenCase(c goldenCase) (string, error) {
	plain, err := c.run(false)
	if err != nil {
		return "", err
	}
	traced, err := c.run(true)
	if err != nil {
		return "", err
	}
	for k := range plain {
		tr := traced[k]
		tr.Telemetry, tr.Spans, tr.Trace = "", "", ""
		pj, _ := json.Marshal(plain[k])
		tj, _ := json.Marshal(tr)
		if !bytes.Equal(pj, tj) {
			return "", fmt.Errorf("core %d: traced run differs from untraced run:\n%s\n%s", k, tj, pj)
		}
		plain[k].Telemetry, plain[k].Spans, plain[k].Trace = traced[k].Telemetry, traced[k].Spans, traced[k].Trace
	}
	out, err := json.Marshal(plain)
	return string(out), err
}
