package cpu

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// TestTraceLifecycleEvents checks every dispatched instruction leaves a
// complete fetch->dispatch->issue->retire record, in causal order.
func TestTraceLifecycleEvents(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 3
		li r2, 4
		mul r3, r1, r2
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12}, nil)
	buf := trace.NewBuffer(1000)
	p.SetSink(buf)
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}

	type life struct{ fetch, dispatch, issue, retire int }
	lives := map[uint32]*life{}
	for _, e := range buf.Events() {
		l, ok := lives[e.Seq]
		if !ok {
			l = &life{fetch: -1, dispatch: -1, issue: -1, retire: -1}
			lives[e.Seq] = l
		}
		switch e.Kind {
		case trace.KindFetch:
			l.fetch = e.Cycle
		case trace.KindDispatch:
			l.dispatch = e.Cycle
		case trace.KindIssue:
			l.issue = e.Cycle
		case trace.KindRetire:
			l.retire = e.Cycle
		}
	}
	if len(lives) != 4 {
		t.Fatalf("traced %d instructions, want 4", len(lives))
	}
	for seq, l := range lives {
		if l.fetch < 0 || l.dispatch < 0 || l.issue < 0 || l.retire < 0 {
			t.Errorf("seq %d incomplete lifecycle: %+v", seq, l)
			continue
		}
		if !(l.fetch <= l.dispatch && l.dispatch < l.issue && l.issue <= l.retire) {
			t.Errorf("seq %d events out of order: %+v", seq, l)
		}
	}
}

// TestTraceRecordsFlushesAndReconfigs: a mispredicting branch with a
// steering policy produces flush and reconfiguration events.
func TestTraceRecordsFlushesAndReconfigs(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 0
		li r2, 50
	loop:
		andi r3, r1, 1
		beq r3, r0, skip
		fcvt.s.w f1, r1
		fadd f2, f2, f1
	skip:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12}, nil)
	p.SetManager(baseline.NewSteeringBasis(p.Fabric(), config.DefaultBasis()))
	buf := trace.NewBuffer(100000)
	p.SetSink(buf)
	if _, err := p.Run(100000); err != nil {
		t.Fatal(err)
	}
	var flushes, reconfigs int
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KindFlush:
			flushes++
		case trace.KindReconfig:
			reconfigs++
		}
	}
	if flushes == 0 {
		t.Error("no flush events traced despite an alternating branch")
	}
	if reconfigs == 0 {
		t.Error("no reconfiguration events traced despite steering")
	}
	if flushes != p.Stats().Flushed {
		t.Errorf("traced %d flushes, stats say %d", flushes, p.Stats().Flushed)
	}
}

// TestTraceRetireCountMatchesStats: retire events equal retired
// instructions exactly.
func TestTraceRetireCountMatchesStats(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 20
	loop:
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12}, nil)
	buf := trace.NewBuffer(100000)
	p.SetSink(buf)
	st, err := p.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	retires := 0
	for _, e := range buf.Events() {
		if e.Kind == trace.KindRetire {
			retires++
		}
	}
	if retires != st.Retired {
		t.Errorf("traced %d retires, stats %d", retires, st.Retired)
	}
}

// TestPipeviewFromRealRun: the rendered chart contains the program's
// instructions with issue markers.
func TestPipeviewFromRealRun(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 6
		mul r2, r1, r1
		halt
	`)
	p := New(prog, Params{MemBytes: 1 << 12}, nil)
	buf := trace.NewBuffer(1000)
	p.SetSink(buf)
	if _, err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	view := trace.Pipeview(buf.Events(), 0, p.Stats().Cycles)
	if !strings.Contains(view, "mul r2, r1, r1") {
		t.Errorf("pipeview missing instruction:\n%s", view)
	}
	if !strings.Contains(view, "I") || !strings.Contains(view, "R") {
		t.Errorf("pipeview missing markers:\n%s", view)
	}
	// The 4-cycle multiply must show executing cycles.
	if !strings.Contains(view, "=") {
		t.Errorf("pipeview missing execution span for the multiply:\n%s", view)
	}
}

// TestTracingDoesNotChangeResults: tracing is observation only.
func TestTracingDoesNotChangeResults(t *testing.T) {
	prog := isa.MustAssemble(`
		li r1, 100
		li r3, 0
	loop:
		add r3, r3, r1
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`)
	run := func(traced bool) (uint32, int) {
		p := New(prog, Params{MemBytes: 1 << 12}, nil)
		p.SetManager(baseline.NewSteeringBasis(p.Fabric(), config.DefaultBasis()))
		if traced {
			p.SetSink(trace.NewBuffer(10))
		}
		st, err := p.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		return p.Reg(3), st.Cycles
	}
	r1, c1 := run(false)
	r2, c2 := run(true)
	if r1 != r2 || c1 != c2 {
		t.Errorf("tracing changed the run: (%d,%d) vs (%d,%d)", r1, c1, r2, c2)
	}
}
