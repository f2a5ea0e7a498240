package main

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// smokeWindow keeps each measured window short; the checks still run
// on every result.
const smokeWindow = 300 * time.Millisecond

func smoke(t *testing.T, workload string, trace bool, exp *expectations) *result {
	t.Helper()
	res, err := run(cfg{workload: workload, seed: 7, window: smokeWindow, trace: trace, dir: t.TempDir(), exp: exp})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke runs every workload, untraced and traced, and requires
// correct results and every metric of the matching table.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w.Name, trace, nil)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, res.failed, res.attempted, res.errors)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
		}
	}
}

// TestCorruptedExpectationFails plants wrong reference results for one
// kernel's runs and estimates, and requires the run to count the
// mismatches as failures.
func TestCorruptedExpectationFails(t *testing.T) {
	exp := newExpectations()
	b, err := newRSSDMixed(cfg{seed: 7, exp: exp}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.close(); err != nil {
		t.Fatal(err)
	}
	for _, o := range b.hits {
		want, err := exp.service(o.source, o.spec)
		if err != nil {
			t.Fatal(err)
		}
		want.Cycles++
		exp.runs[specKey(o.source, o.spec)] = want
		exp.ests[specKey(o.source, o.spec)] = -1
	}
	res := smoke(t, "rssd-mixed", false, exp)
	if res.failed == 0 {
		t.Fatalf("corrupted expectations passed: %d of %d failed", res.failed, res.attempted)
	}
}

// TestChangedCountsFail requires sim-long to count a simulation whose
// counts differ from an earlier run of the same input as a failure.
func TestChangedCountsFail(t *testing.T) {
	b, err := newSimLong(cfg{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b.first[0] = &outcome{}
	w := b.window(smokeWindow, nil)
	if w.failed == 0 {
		t.Fatalf("a changed outcome passed: %d of %d failed", w.failed, w.ops)
	}
}

// TestBenchmarkJSON requires the committed BENCHMARK.json to be what
// --describe prints.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go run . --describe > ../BENCHMARK.json")
	}
}
