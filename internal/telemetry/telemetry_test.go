package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/obs"
)

// snapshot is a fixed machine state for EndCycle.
type snapshot obs.State

func (s snapshot) Snapshot() obs.State { return obs.State(s) }

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := reg.NewGauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	h := reg.NewHistogram("h", "a histogram", []int64{1, 4})
	for _, v := range []int64{0, 1, 2, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 8 {
		t.Errorf("histogram count=%d sum=%d, want 4/8", h.Count(), h.Sum())
	}
	if got := h.counts; got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bucket counts = %v, want [2 1 1]", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup", "second")
}

func TestRegistryLabelsDistinguish(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("issued", "per unit", Label{"unit", "IntALU"})
	b := reg.NewCounter("issued", "per unit", Label{"unit", "LSU"})
	a.Inc()
	b.Add(2)
	if v, ok := reg.CounterValue("issued", Label{"unit", "LSU"}); !ok || v != 2 {
		t.Errorf("CounterValue(LSU) = %d,%v, want 2,true", v, ok)
	}
	if _, ok := reg.CounterValue("issued", Label{"unit", "FPALU"}); ok {
		t.Error("CounterValue on unregistered labels reported ok")
	}
}

func TestRenderPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("sim_events_total", "events", Label{"kind", "x"})
	c.Add(3)
	h := reg.NewHistogram("sim_occ", "occupancy", []int64{1, 2})
	h.Observe(0)
	h.Observe(2)
	h.Observe(9)
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP sim_events_total events",
		"# TYPE sim_events_total counter",
		`sim_events_total{kind="x"} 3`,
		"# TYPE sim_occ histogram",
		`sim_occ_bucket{le="1"} 1`,
		`sim_occ_bucket{le="2"} 2`,
		`sim_occ_bucket{le="+Inf"} 3`,
		"sim_occ_sum 11",
		"sim_occ_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q\n%s", want, out)
		}
	}
}

// TestProbeNilReceiverSafe pins the accessors the machine facades call
// on a probe that may be absent (telemetry off).
func TestProbeNilReceiverSafe(t *testing.T) {
	var p *Probe
	if err := p.Flush(); err != nil {
		t.Errorf("nil probe Flush = %v", err)
	}
	if p.Registry() != nil || p.Interval() != 0 {
		t.Error("nil probe accessors not zero")
	}
}

func TestProbeSamplingAndCounters(t *testing.T) {
	p := NewProbe(10)
	col := &Collector{}
	p.SetExporter(col)

	load := isa.Inst{Op: isa.LW}
	for c := 1; c <= 20; c++ {
		p.BeginCycle(c, c-1)
		p.Dispatch(uint64(c), 0, load, c)
		p.Issue(uint64(c), 0, load, 1)
		p.Retire(uint64(c), 0)
		p.EndCycle(snapshot{Cycle: c, Retired: c, Occupancy: 3,
			Buckets: [4]int{c, 0, 0, 0}})
	}
	if len(col.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(col.Samples))
	}
	s := col.Samples[1]
	if s.Cycle != 20 || s.IntervalRetired != 10 || s.IntervalIPC != 1.0 {
		t.Errorf("sample = %+v, want cycle 20, intervalRetired 10, IPC 1.0", s)
	}
	if s.IntervalIssued[arch.LSU] != 10 {
		t.Errorf("interval issued LSU = %d, want 10", s.IntervalIssued[arch.LSU])
	}
	if s.BucketIssued != 10 {
		t.Errorf("bucketIssued = %d, want 10 (interval delta)", s.BucketIssued)
	}
	if v, _ := p.Registry().CounterValue("rsssim_cycles_total"); v != 20 {
		t.Errorf("cycles counter = %d, want 20", v)
	}
	if v, _ := p.Registry().CounterValue("rsssim_issued_total", Label{"unit", "LSU"}); v != 20 {
		t.Errorf("issued{LSU} counter = %d, want 20", v)
	}
}

func TestProbeDecisionStampedAndExported(t *testing.T) {
	p := NewProbe(100)
	col := &Collector{}
	p.SetExporter(col)
	p.BeginCycle(42, 0)
	p.Selection([arch.NumConfigs]int{9, 1, 5, 7}, 1)
	p.ConfigSwitch(obs.Decision{From: "memory", To: "floating", Choice: 1,
		DiffSlots: 6, Spans: 2, SlotsLoading: 4, StallSlotCycles: 32})
	if len(col.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(col.Decisions))
	}
	d := col.Decisions[0]
	if d.Cycle != 42 {
		t.Errorf("decision cycle = %d, want 42 (stamped by probe)", d.Cycle)
	}
	if d.From != "memory" || d.To != "floating" || d.StallSlotCycles != 32 {
		t.Errorf("decision = %+v", d)
	}
	if v, _ := p.Registry().CounterValue("rsssim_steering_decisions_total"); v != 1 {
		t.Errorf("decisions counter = %d, want 1", v)
	}
}

func TestJSONLExporterRecords(t *testing.T) {
	var buf bytes.Buffer
	e := NewJSONL(&buf)
	if err := e.Sample(&Sample{Cycle: 100, Occupancy: 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Decision(&Decision{Cycle: 101, Decision: obs.Decision{From: "(empty)", To: "memory"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var sample map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &sample); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if sample["record"] != "sample" || sample["cycle"] != float64(100) {
		t.Errorf("sample row = %v", sample)
	}
	if _, ok := sample["from"]; ok {
		t.Error("sample row leaked decision fields")
	}
	var dec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &dec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if dec["record"] != "decision" || dec["to"] != "memory" {
		t.Errorf("decision row = %v", dec)
	}
}

func TestCSVExporterShape(t *testing.T) {
	var buf bytes.Buffer
	e := NewCSV(&buf)
	s := &Sample{Cycle: 10, Retired: 5, IntervalRetired: 5, IntervalIPC: 0.5,
		Occupancy: 3, CEMValid: true, CEMErrors: [arch.NumConfigs]int{4, 3, 2, 1}}
	if err := e.Sample(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Sample(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
	nCols := len(strings.Split(lines[0], ","))
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != nCols {
			t.Errorf("row %d has %d columns, header has %d", i, got, nCols)
		}
	}
	if !strings.HasPrefix(lines[0], "cycle,core,retired,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestPromExporterSnapshot(t *testing.T) {
	p := NewProbe(10)
	var buf bytes.Buffer
	e := NewProm(&buf, p.Registry())
	p.SetExporter(e)
	p.BeginCycle(1, 0)
	p.Retire(1, 0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rsssim_retired_total 1") {
		t.Errorf("prom snapshot missing retired counter:\n%s", out)
	}
	if !strings.Contains(out, "rsssim_cycles_total 1") {
		t.Errorf("prom snapshot missing cycles counter:\n%s", out)
	}
}

func TestProbeInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProbe(0) did not panic")
		}
	}()
	NewProbe(0)
}
