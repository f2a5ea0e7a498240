package cpu

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
		if !p.Valid() {
			t.Errorf("%v.Valid() = false", p)
		}
	}
}

func TestParsePolicyUnknown(t *testing.T) {
	_, err := ParsePolicy("bogus")
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
	// The error must name the valid spellings, so CLI and API users get
	// the menu, not just a rejection.
	if !strings.Contains(err.Error(), "steering") {
		t.Errorf("error %q does not list known policies", err)
	}
}

func TestPolicyZeroValueIsSteering(t *testing.T) {
	var p Policy
	if p != PolicySteering || p.String() != "steering" {
		t.Fatalf("zero Policy = %v (%q), want steering", p, p)
	}
}

func TestPolicyJSON(t *testing.T) {
	var doc struct {
		Policy Policy `json:"policy"`
	}
	if err := json.Unmarshal([]byte(`{"policy": "full-reconfig"}`), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Policy != PolicyFullReconfig {
		t.Errorf("policy = %v, want full-reconfig", doc.Policy)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(out) != `{"policy":"full-reconfig"}` {
		t.Errorf("marshal = %s", out)
	}
	if err := json.Unmarshal([]byte(`{"policy": "bogus"}`), &doc); !errors.Is(err, ErrUnknownPolicy) {
		t.Errorf("unmarshal bogus: err = %v, want ErrUnknownPolicy", err)
	}
}

func TestPolicyStringOutOfRange(t *testing.T) {
	if s := Policy(99).String(); !strings.Contains(s, "99") {
		t.Errorf("out-of-range String() = %q", s)
	}
	if Policy(99).Valid() {
		t.Errorf("Policy(99).Valid() = true")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params invalid: %v", err)
	}
	good := []Params{
		{ConfigBusWidth: 0}, // zero = unlimited bus, valid
		{ConfigBusWidth: 1},
		{FaultTransientRate: 0.5, FaultPermanentRate: 0.5, FaultScrubInterval: 64}, // sum exactly 1
		{FaultScrubInterval: 1},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected error %v", i, err)
		}
	}
	bad := []Params{
		{WindowSize: -1},
		{ReconfigLatency: -8},
		{ConfigBusWidth: -1},
		{MemBytes: 1000},    // not a power of two
		{MemBytes: 1 << 40}, // beyond the 32-bit address space
		{CacheLineBytes: 48},
		{IssueOrder: IssueOrder(99)},
		{FaultTransientRate: -0.1},
		{FaultPermanentRate: 1.5},
		{FaultTransientRate: 0.7, FaultPermanentRate: 0.7}, // sum > 1
		{FaultTransientRate: math.NaN()},
		{FaultScrubInterval: -1},
		{FaultTransientRate: 0.5, FaultPermanentRate: 0.5}, // rates without a scrub interval
		{FaultTransientRate: 0.002},                        // ditto, transient only
		{FaultPermanentRate: 0.001, FaultScrubInterval: 0}, // explicit zero scrub
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("bad[%d]: err = %v, want ErrInvalidParams", i, err)
		}
	}
}

// TestValidateGeometryMatchesConstructors pins Validate to the
// substrates' own geometry predicates: each spec is either rejected by
// Validate with ErrInvalidParams and by New with a panic, or accepted
// by both. Before the shared predicates, the rejected rows here passed
// Validate and then panicked in New.
func TestValidateGeometryMatchesConstructors(t *testing.T) {
	prog := isa.MustAssemble("halt\n")
	for _, tc := range []struct {
		name string
		p    Params
		ok   bool
	}{
		{"window at the bitboard width", Params{WindowSize: 64}, true},
		{"window past the bitboard width", Params{WindowSize: 65}, false},
		{"predictor power of two", Params{PredictorEntries: 1024}, true},
		{"predictor not a power of two", Params{PredictorEntries: 1000}, false},
		{"gshare predictor not a power of two", Params{PredictorEntries: 1000, GshareHistoryBits: 4}, false},
		{"trace cache power of two", Params{TraceCacheLines: 1024, TraceCacheLineLen: 1}, true},
		{"trace cache lines not a power of two", Params{TraceCacheLines: 1000}, false},
		{"full latency table", Params{Latencies: isa.DefaultLatencies()}, true},
		{"partial latency table", Params{Latencies: isa.Latencies{IntMul: 3}}, false},
		{"negative latency", Params{Latencies: func() isa.Latencies {
			l := isa.DefaultLatencies()
			l.IntALU = -1
			return l
		}()}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok != (err == nil) {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok && !errors.Is(err, ErrInvalidParams) {
				t.Errorf("Validate() = %v, want ErrInvalidParams", err)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				New(prog, tc.p, nil).Run(100)
				return false
			}()
			if panicked == tc.ok {
				t.Errorf("New panicked = %v, want %v", panicked, !tc.ok)
			}
		})
	}
}

// spinProgram never halts — the RunContext tests race it against a
// deadline or cancellation.
func spinProgram(t *testing.T) isa.Program {
	t.Helper()
	prog, err := isa.Assemble("loop: j loop\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

func TestRunContextDeadline(t *testing.T) {
	p := New(spinProgram(t), Params{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	stats, err := p.RunContext(ctx, 1<<40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if stats.Cycles == 0 {
		t.Errorf("no cycles simulated before the deadline")
	}
	if p.Halted() {
		t.Errorf("spin program halted")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	p := New(spinProgram(t), Params{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := p.RunContext(ctx, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// The context is checked before each interval, so a pre-cancelled
	// run stops within one CtxCheckInterval of cycles — here, before
	// simulating anything at all.
	if stats.Cycles != 0 {
		t.Errorf("pre-cancelled run simulated %d cycles", stats.Cycles)
	}
}

func TestRunContextResume(t *testing.T) {
	// A cancelled run leaves the machine consistent: resuming it with a
	// live context completes the program.
	prog := isa.MustAssemble(`
		li r1, 5
		li r2, 7
		add r3, r1, r2
		halt
	`)
	p := New(prog, Params{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want Canceled", err)
	}
	stats, err := p.Run(1_000_000)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !p.Halted() || stats.Retired < 4 {
		t.Errorf("resumed run did not complete: halted=%v retired=%d", p.Halted(), stats.Retired)
	}
	if got := p.Reg(3); got != 12 {
		t.Errorf("r3 = %d, want 12", got)
	}
}

func TestRunContextCancelBounded(t *testing.T) {
	// Cancellation mid-run stops the simulation within one check
	// interval: after the cancel is visible, at most CtxCheckInterval
	// more cycles may elapse (the interval in flight when it landed).
	p := New(spinProgram(t), Params{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var stats Stats
	var err error
	go func() {
		defer close(done)
		stats, err = p.RunContext(ctx, 1<<40)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	cyclesAtReturn := stats.Cycles
	// The machine must not have advanced past the interval boundary the
	// cancellation landed in: its final cycle count is what RunContext
	// reported, aligned to the check interval.
	if got := p.Stats().Cycles; got != cyclesAtReturn {
		t.Errorf("machine advanced after return: %d != %d", got, cyclesAtReturn)
	}
	if cyclesAtReturn%CtxCheckInterval != 0 {
		t.Errorf("stopped mid-interval at cycle %d (interval %d)", cyclesAtReturn, CtxCheckInterval)
	}
}
