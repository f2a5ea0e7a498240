package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindFetch: "fetch", KindDispatch: "dispatch", KindIssue: "issue",
		KindRetire: "retire", KindFlush: "flush", KindReconfig: "reconfig",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind format")
	}
}

func TestBufferBounded(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Record(Event{Cycle: i})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Dropped() {
		t.Error("Dropped = false after eviction")
	}
	evs := b.Events()
	for i, e := range evs {
		if e.Cycle != i+2 {
			t.Errorf("event %d cycle = %d, want %d (oldest-first after eviction)", i, e.Cycle, i+2)
		}
	}
}

func TestBufferUnderLimit(t *testing.T) {
	b := NewBuffer(10)
	b.Record(Event{Cycle: 1})
	b.Record(Event{Cycle: 2})
	evs := b.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || b.Dropped() {
		t.Errorf("events = %v dropped = %v", evs, b.Dropped())
	}
}

func TestBufferPanicsOnBadLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewBuffer(0)
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 12, Kind: KindIssue, Seq: 3, PC: 7, Latency: 4, Text: "mul r1, r2, r3"}
	s := e.String()
	for _, want := range []string{"12", "issue", "#3", "lat=4", "mul"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	r := Event{Cycle: 5, Kind: KindReconfig, Text: "2 span(s)"}
	if !strings.Contains(r.String(), "2 span(s)") {
		t.Errorf("reconfig string %q", r.String())
	}
}

func TestLog(t *testing.T) {
	out := Log([]Event{{Cycle: 1, Kind: KindFetch}, {Cycle: 2, Kind: KindRetire}})
	if strings.Count(out, "\n") != 2 {
		t.Errorf("Log output:\n%s", out)
	}
}

func TestPipeviewMarkers(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindFetch, Seq: 1, PC: 0, Text: "add r1, r2, r3"},
		{Cycle: 1, Kind: KindDispatch, Seq: 1, PC: 0},
		{Cycle: 2, Kind: KindIssue, Seq: 1, PC: 0, Latency: 3},
		{Cycle: 6, Kind: KindRetire, Seq: 1, PC: 0},
		{Cycle: 0, Kind: KindFetch, Seq: 2, PC: 1, Text: "beq r1, r0, 4"},
		{Cycle: 1, Kind: KindDispatch, Seq: 2, PC: 1},
		{Cycle: 3, Kind: KindFlush, Seq: 2, PC: 1},
		{Cycle: 4, Kind: KindReconfig, Text: "to memory"},
	}
	out := Pipeview(events, 0, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 instructions + 1 reconfig row
		t.Fatalf("pipeview lines = %d:\n%s", len(lines), out)
	}
	// Row 1: F D I = = . R
	row1 := lines[1]
	chart1 := row1[strings.LastIndex(row1, " ")+1:]
	if chart1 != "FDI==.R.." {
		t.Errorf("row 1 chart = %q, want FDI==.R..", chart1)
	}
	row2 := lines[2]
	chart2 := row2[strings.LastIndex(row2, " ")+1:]
	if chart2 != "FD.x....." {
		t.Errorf("row 2 chart = %q, want FD.x.....", chart2)
	}
	// The reconfig happened after both fetches, so it renders last: a
	// seq-less row with a C marker at its cycle.
	row3 := lines[3]
	chart3 := row3[strings.LastIndex(row3, " ")+1:]
	if chart3 != "....C...." {
		t.Errorf("reconfig chart = %q, want ....C....", chart3)
	}
	if !strings.HasPrefix(row3, "-") || !strings.Contains(row3, "to memory") {
		t.Errorf("reconfig row = %q, want seq-less row carrying the event text", row3)
	}
}

func TestPipeviewReconfigInterleavesWithFlushes(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindFetch, Seq: 1, PC: 0, Text: "add r1, r2, r3"},
		{Cycle: 2, Kind: KindRetire, Seq: 1, PC: 0},
		{Cycle: 3, Kind: KindReconfig, Text: "steer int -> fp"},
		{Cycle: 4, Kind: KindFetch, Seq: 2, PC: 1, Text: "beq r1, r0, 8"},
		{Cycle: 5, Kind: KindDispatch, Seq: 2, PC: 1},
		{Cycle: 6, Kind: KindFlush, Seq: 2, PC: 1},
		{Cycle: 7, Kind: KindReconfig, Text: "steer fp -> memory"},
		{Cycle: 8, Kind: KindFetch, Seq: 3, PC: 2, Text: "ld r4, 0(r5)"},
		{Cycle: 9, Kind: KindRetire, Seq: 3, PC: 2},
	}
	out := Pipeview(events, 0, 9)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // header + 3 instructions + 2 reconfigs
		t.Fatalf("pipeview lines = %d:\n%s", len(lines), out)
	}
	// Chronological order top to bottom: inst 1, reconfig@3, flushed
	// inst 2, reconfig@7, inst 3.
	wantOrder := []string{"add r1", "steer int -> fp", "beq r1", "steer fp -> memory", "ld r4"}
	for i, want := range wantOrder {
		if !strings.Contains(lines[i+1], want) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i+1], want)
		}
	}
	chartOf := func(line string) string { return line[strings.LastIndex(line, " ")+1:] }
	if got := chartOf(lines[2]); got != "...C......" {
		t.Errorf("first reconfig chart = %q, want ...C......", got)
	}
	if got := chartOf(lines[3]); got != "....FDx..." {
		t.Errorf("flushed instruction chart = %q, want ....FDx...", got)
	}
	if got := chartOf(lines[4]); got != ".......C.." {
		t.Errorf("second reconfig chart = %q, want .......C..", got)
	}
}

func TestPipeviewReconfigClippedOutsideRange(t *testing.T) {
	events := []Event{
		{Cycle: 5, Kind: KindDispatch, Seq: 1, Text: "in range"},
		{Cycle: 6, Kind: KindRetire, Seq: 1},
		{Cycle: 50, Kind: KindReconfig, Text: "far future reconfig"},
	}
	out := Pipeview(events, 0, 10)
	if strings.Contains(out, "far future reconfig") {
		t.Error("reconfig outside the cycle range was not clipped")
	}
	if !strings.Contains(out, "in range") {
		t.Error("in-range instruction missing")
	}
}

func TestUntilCutsOffAfterCycle(t *testing.T) {
	b := NewBuffer(100)
	b.LastCycle = 5
	for c := 0; c < 10; c++ {
		b.Record(Event{Cycle: c})
	}
	if b.Len() != 6 { // cycles 0..5 inclusive
		t.Errorf("recorded %d events, want 6", b.Len())
	}
	for _, e := range b.Events() {
		if e.Cycle > 5 {
			t.Errorf("event past cutoff recorded: cycle %d", e.Cycle)
		}
	}
}

func TestPipeviewClipsRange(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindDispatch, Seq: 1, Text: "early"},
		{Cycle: 1, Kind: KindRetire, Seq: 1},
		{Cycle: 50, Kind: KindDispatch, Seq: 2, Text: "late"},
		{Cycle: 51, Kind: KindRetire, Seq: 2},
	}
	out := Pipeview(events, 40, 60)
	if strings.Contains(out, "early") {
		t.Error("instruction entirely before the range not clipped")
	}
	if !strings.Contains(out, "late") {
		t.Error("in-range instruction missing")
	}
	if Pipeview(events, 10, 5) != "" {
		t.Error("inverted range did not produce empty output")
	}
}

// TestReconfigRowsCoalescePerCycle: the span rewrites one configuration
// pass starts in a cycle share one reconfig row carrying their count
// and the final allocation; a pipeline event or a new cycle starts a
// fresh row, and rows past LastCycle are dropped.
func TestReconfigRowsCoalescePerCycle(t *testing.T) {
	b := NewBuffer(100)
	b.LastCycle = 3
	var slots [arch.NumRFUSlots]arch.Encoding
	rewrite := func(slot int) {
		slots[slot] = arch.Encode(arch.LSU)
		b.ReconfigStart(obs.Reconfig{Unit: arch.LSU, Head: slot, Width: 1, Latency: 8, Slots: slots})
	}
	b.BeginCycle(1, 0)
	rewrite(0)
	rewrite(1)
	b.Retire(1, 0)
	rewrite(2)
	b.BeginCycle(2, 1)
	rewrite(3)
	b.BeginCycle(4, 1)
	rewrite(4)

	var got []string
	for _, e := range b.Events() {
		if e.Kind == KindReconfig {
			got = append(got, fmt.Sprintf("%d: %s", e.Cycle, e.Text))
		}
	}
	lsu := func(n int) (s [arch.NumRFUSlots]arch.Encoding) {
		for i := 0; i < n; i++ {
			s[i] = arch.Encode(arch.LSU)
		}
		return s
	}
	want := []string{
		fmt.Sprintf("1: 2 span(s) -> %v", lsu(2)),
		fmt.Sprintf("1: 1 span(s) -> %v", lsu(3)),
		fmt.Sprintf("2: 1 span(s) -> %v", lsu(4)),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reconfig rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
