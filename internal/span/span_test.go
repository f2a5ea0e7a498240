package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
)

// TestNilRecorderSafe pins the accessors exporters call on a recorder
// that may be absent (a cluster core without spans): they must be
// no-ops on a nil receiver.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if got := r.Entries(); got != nil {
		t.Errorf("nil recorder Entries() = %v, want nil", got)
	}
	if r.Core() != 0 {
		t.Error("nil recorder reported a core label")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
	if err := r.WriteJSONL(&buf); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := r.DumpFlight(&buf, ""); err != nil {
		t.Errorf("nil DumpFlight: %v", err)
	}
}

// TestFaultStormTrigger drives injections past the window threshold and
// checks the trigger fires exactly at the window boundary, records a
// trigger entry, and invokes the OnTrigger dump hook.
func TestFaultStormTrigger(t *testing.T) {
	var hookReasons []string
	r := NewRecorder(Config{
		Window:     64,
		FaultStorm: 2,
		OnTrigger: func(rec *Recorder, reason string) {
			hookReasons = append(hookReasons, reason)
			if rec.Triggers() == 0 {
				t.Error("hook ran before the trigger entry was recorded")
			}
		},
	}, 4)

	for c := 1; c < 64; c++ {
		r.BeginCycle(c, c)
	}
	// Three injections in the window, threshold 2: one over.
	r.Fault(0, obs.FaultInjectedTransient)
	r.Fault(1, obs.FaultInjectedTransient)
	r.Fault(2, obs.FaultInjectedPermanent)
	if r.Triggers() != 0 {
		t.Fatal("trigger fired before the window boundary")
	}
	r.BeginCycle(64, 64)
	if r.Triggers() != 1 {
		t.Fatalf("Triggers() = %d, want 1", r.Triggers())
	}
	if len(hookReasons) != 1 || hookReasons[0] != TriggerFaultStorm {
		t.Fatalf("hook reasons = %v, want [%s]", hookReasons, TriggerFaultStorm)
	}

	var trig *Entry
	for i, e := range r.Entries() {
		if e.Kind == KindTrigger {
			trig = &r.Entries()[i]
		}
	}
	if trig == nil {
		t.Fatal("no trigger entry recorded")
	}
	if trig.Name != TriggerFaultStorm || trig.A != 3 || trig.B != 2 {
		t.Errorf("trigger entry = %+v, want fault-storm value 3 threshold 2", trig)
	}

	// The counter resets per window: two more injections stay under.
	r.Fault(0, obs.FaultInjectedTransient)
	r.Fault(0, obs.FaultInjectedTransient)
	r.BeginCycle(128, 128)
	if r.Triggers() != 1 {
		t.Errorf("Triggers() = %d after an under-threshold window, want 1", r.Triggers())
	}
}

// TestIPCCollapseTrigger feeds three healthy baseline windows and then a
// collapsed one; the trigger must fire only on the collapsed window.
func TestIPCCollapseTrigger(t *testing.T) {
	r := NewRecorder(Config{Window: 16, IPCCollapsePct: 50}, 4)

	retired := 0
	window := func(delta int) {
		retired += delta
		r.BeginCycle(16*(r.winIndex+1), retired)
	}
	window(5)   // window 1: pipeline ramp, ignored
	window(100) // windows 2-4: baseline
	window(100)
	window(100)
	if r.Triggers() != 0 {
		t.Fatal("trigger fired during baseline windows")
	}
	window(80) // 80% of baseline: healthy
	if r.Triggers() != 0 {
		t.Fatal("trigger fired on a healthy window")
	}
	window(10) // 10% of baseline, threshold 50%: collapse
	if r.Triggers() != 1 {
		t.Fatalf("Triggers() = %d after collapsed window, want 1", r.Triggers())
	}
	var trig Entry
	for _, e := range r.Entries() {
		if e.Kind == KindTrigger {
			trig = e
		}
	}
	if trig.Name != TriggerIPCCollapse || trig.A != 10 || trig.B != 100 {
		t.Errorf("trigger entry = %+v, want ipc-collapse value 10 baseline 100", trig)
	}
}

// TestFlightRingBounds checks the ring keeps only the newest FlightSize
// entries, oldest first, and the trace buffer counts drops past MaxTrace.
func TestFlightRingBounds(t *testing.T) {
	r := NewRecorder(Config{MaxTrace: 6, FlightSize: 4}, 4)
	for i := 1; i <= 10; i++ {
		r.BeginCycle(i, i)
		r.ReconfigStart(obs.Reconfig{Unit: arch.IntALU, Head: i % 4, Width: 1, Latency: int(i)})
	}
	if got := len(r.Entries()); got != 6 {
		t.Errorf("trace length = %d, want MaxTrace 6", got)
	}
	if got := r.Dropped(); got != 4 {
		t.Errorf("Dropped() = %d, want 4", got)
	}
	flight := r.Flight()
	if len(flight) != 4 {
		t.Fatalf("flight length = %d, want 4", len(flight))
	}
	for i, e := range flight {
		if want := int64(7 + i); e.Start != want {
			t.Errorf("flight[%d].Start = %d, want %d (oldest first)", i, e.Start, want)
		}
	}
}

// TestOpenSpanLifecycles exercises repair, speculation, phase and cache
// epochs through open → close, including RunEnd closing trailing spans.
func TestOpenSpanLifecycles(t *testing.T) {
	r := NewRecorder(Config{}, 4)
	r.SteerCacheLookup(true)

	r.BeginCycle(10, 10)
	r.Fault(2, obs.FaultRepairStart)
	r.PrefetchOpen(obs.Prefetch{Config: "2xIntAdd", ConfidencePct: 75})
	r.PrefetchPhase()

	r.BeginCycle(50, 50)
	r.Fault(2, obs.FaultRepaired)
	r.PrefetchResolve(obs.OutcomeMispredict, obs.Prefetch{Spans: 2})
	r.SteerCacheFlush()
	r.PrefetchPhase()

	r.BeginCycle(90, 90)
	r.PrefetchOpen(obs.Prefetch{Config: "4xFPMul", ConfidencePct: 60}) // left open: RunEnd resolves it as "open"
	r.Fault(1, obs.FaultRepairStart)                                   // left open: RunEnd closes it
	r.RunEnd()
	r.RunEnd() // idempotent

	byKind := map[Kind][]Entry{}
	for _, e := range r.Entries() {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}

	repairs := byKind[KindRepair]
	if len(repairs) != 2 {
		t.Fatalf("repair spans = %d, want 2", len(repairs))
	}
	if repairs[0].Slot != 2 || repairs[0].Start != 10 || repairs[0].Dur != 40 || repairs[0].Aux != "repaired" {
		t.Errorf("closed repair span = %+v", repairs[0])
	}
	if repairs[1].Slot != 1 || repairs[1].Aux != OutcomeOpen {
		t.Errorf("trailing repair span = %+v", repairs[1])
	}

	specs := byKind[KindSpec]
	if len(specs) != 2 {
		t.Fatalf("speculation spans = %d, want 2", len(specs))
	}
	if specs[0].Name != "2xIntAdd" || specs[0].Aux != obs.OutcomeMispredict ||
		specs[0].A != 2 || specs[0].B != 75 || specs[0].Dur != 40 {
		t.Errorf("resolved speculation = %+v", specs[0])
	}
	if specs[1].Name != "4xFPMul" || specs[1].Aux != OutcomeOpen {
		t.Errorf("trailing speculation = %+v", specs[1])
	}

	phases := byKind[KindPhase]
	if len(phases) != 2 {
		t.Fatalf("phase spans = %d, want 2", len(phases))
	}
	if phases[0].Start != 10 || phases[0].Dur != 40 || phases[0].A != 1 {
		t.Errorf("first phase = %+v", phases[0])
	}
	if phases[1].Start != 50 || phases[1].Dur != 40 || phases[1].A != 2 {
		t.Errorf("second phase = %+v", phases[1])
	}

	epochs := byKind[KindCacheEpoch]
	if len(epochs) != 2 {
		t.Fatalf("cache epochs = %d, want 2 (flush + trailing)", len(epochs))
	}
	if epochs[0].Start != 0 || epochs[0].Dur != 50 {
		t.Errorf("flush epoch = %+v", epochs[0])
	}
	if epochs[1].Start != 50 || epochs[1].Dur != 40 {
		t.Errorf("trailing epoch = %+v", epochs[1])
	}
}

// TestWriteChromeTrace checks the export is one valid JSON document with
// the lanes and event phases Perfetto expects.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(Config{Window: 64, FaultStorm: 1}, 4)
	r.BeginCycle(5, 5)
	r.ReconfigStart(obs.Reconfig{Unit: arch.FPMDU, Head: 2, Width: 2, Latency: 16})
	r.Fault(1, obs.FaultInjectedTransient)
	r.Fault(1, obs.FaultInjectedTransient)
	r.BeginCycle(64, 64) // fault storm → trigger instant
	r.RunEnd()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Ph    string `json:"ph"`
			TS    int64  `json:"ts"`
			Dur   *int64 `json:"dur"`
			PID   int    `json:"pid"`
			TID   int    `json:"tid"`
			Scope string `json:"s"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var sawReconfig, sawTrigger, sawProcessName bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			sawProcessName = true
		case ev.Cat == "reconfig":
			sawReconfig = true
			if ev.Ph != "X" || ev.Dur == nil || *ev.Dur != 16 {
				t.Errorf("reconfig event = %+v, want complete span dur 16", ev)
			}
			if ev.TID != tidSlotBase+2 || ev.TS != 5 {
				t.Errorf("reconfig lane/ts = tid %d ts %d, want tid %d ts 5", ev.TID, ev.TS, tidSlotBase+2)
			}
		case ev.Cat == "trigger":
			sawTrigger = true
			if ev.Ph != "i" || ev.Scope != "t" {
				t.Errorf("trigger event = %+v, want thread-scoped instant", ev)
			}
		}
	}
	if !sawProcessName || !sawReconfig || !sawTrigger {
		t.Errorf("missing events: process_name=%v reconfig=%v trigger=%v",
			sawProcessName, sawReconfig, sawTrigger)
	}
}

// TestWriteJSONL checks every exported line parses and carries the
// record discriminator.
func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(Config{}, 4)
	r.BeginCycle(3, 3)
	r.ReconfigStart(obs.Reconfig{Unit: arch.IntALU, Head: 0, Width: 1, Latency: 8})
	r.Fault(0, obs.FaultInjectedPermanent)
	r.RunEnd()

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	wantRecords := []string{"span", "instant"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if rec["record"] != wantRecords[i] {
			t.Errorf("line %d record = %v, want %q", i, rec["record"], wantRecords[i])
		}
	}
}

// TestDumpFlight checks the anomaly dump document shape.
func TestDumpFlight(t *testing.T) {
	r := NewRecorder(Config{FlightSize: 2}, 4)
	for i := 1; i <= 5; i++ {
		r.BeginCycle(i, i)
		r.ReconfigStart(obs.Reconfig{Unit: arch.IntALU, Head: 0, Width: 1, Latency: 4})
	}
	var buf bytes.Buffer
	if err := r.DumpFlight(&buf, TriggerFaultStorm); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason  string           `json:"reason"`
		Cycle   int64            `json:"cycle"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	if dump.Reason != TriggerFaultStorm || dump.Cycle != 5 {
		t.Errorf("dump header = %+v, want reason %s cycle 5", dump, TriggerFaultStorm)
	}
	if len(dump.Entries) != 2 {
		t.Errorf("dump entries = %d, want ring size 2", len(dump.Entries))
	}
}

// TestServiceRecorder exercises the rssd-side flight ring: ordinals,
// ring bounding, deadline triggers and both export formats.
func TestServiceRecorder(t *testing.T) {
	var nilRec *ServiceRecorder
	if nilRec.NextRequest() != 0 {
		t.Error("nil ServiceRecorder allocated a request ordinal")
	}
	nilRec.Record(1, "execute", "run", -1, time.Now(), time.Now())
	nilRec.TriggerDeadline(1, "run", -1, time.Now(), time.Now())
	if spans, rec, dl := nilRec.Snapshot(); spans != nil || rec != 0 || dl != 0 {
		t.Error("nil ServiceRecorder snapshot not empty")
	}
	var nilBuf bytes.Buffer
	if err := nilRec.WriteJSON(&nilBuf); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}

	r := NewService(3)
	if got := r.NextRequest(); got != 1 {
		t.Fatalf("first request ordinal = %d, want 1", got)
	}
	base := time.Now()
	for i := 0; i < 5; i++ {
		r.Record(uint64(i+1), "execute", "run", -1,
			base.Add(time.Duration(i)*time.Millisecond),
			base.Add(time.Duration(i+1)*time.Millisecond))
	}
	r.TriggerDeadline(6, "job_point", 2, base, base.Add(time.Second))

	spans, recorded, deadlines := r.Snapshot()
	if recorded != 6 || deadlines != 1 {
		t.Errorf("recorded=%d deadlines=%d, want 6 and 1", recorded, deadlines)
	}
	if len(spans) != 3 {
		t.Fatalf("ring snapshot = %d spans, want 3", len(spans))
	}
	last := spans[len(spans)-1]
	if last.Name != "deadline-exceeded" || last.Detail != "deadline" || last.Point != 2 {
		t.Errorf("newest span = %+v, want the deadline trigger", last)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded  uint64        `json:"recorded"`
		Deadlines uint64        `json:"deadlines"`
		Spans     []ServiceSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("service dump is not JSON: %v", err)
	}
	if dump.Recorded != 6 || dump.Deadlines != 1 || len(dump.Spans) != 3 {
		t.Errorf("dump = recorded %d deadlines %d spans %d", dump.Recorded, dump.Deadlines, len(dump.Spans))
	}

	buf.Reset()
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("service chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1+3 { // process_name + 3 ring spans
		t.Errorf("chrome events = %d, want 4", len(doc.TraceEvents))
	}
}
