package wakeup

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
)

// allAvail asserts every unit-availability line.
func allAvail() [arch.NumUnitTypes]bool {
	var a [arch.NumUnitTypes]bool
	for i := range a {
		a[i] = true
	}
	return a
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAllocateUntilFull(t *testing.T) {
	a := New(arch.QueueSize)
	for i := 0; i < arch.QueueSize; i++ {
		if a.Free() != arch.QueueSize-i {
			t.Fatalf("Free = %d before allocation %d", a.Free(), i)
		}
		row, ok := a.Allocate(arch.IntALU, nil, 1, uint64(i))
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		if row != i {
			t.Fatalf("allocation %d landed on row %d", i, row)
		}
	}
	if _, ok := a.Allocate(arch.IntALU, nil, 1, 99); ok {
		t.Error("allocation succeeded on a full array")
	}
	if a.Free() != 0 {
		t.Errorf("Free = %d on full array", a.Free())
	}
}

func TestAllocateReusesReleasedRows(t *testing.T) {
	a := New(3)
	r0, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	a.Allocate(arch.LSU, nil, 2, 1)
	a.Release(r0)
	r2, ok := a.Allocate(arch.FPALU, nil, 3, 2)
	if !ok || r2 != r0 {
		t.Errorf("released row not reused: got %d, want %d", r2, r0)
	}
	if a.Unit(r2) != arch.FPALU || a.Tag(r2) != 2 {
		t.Error("reused row carries stale state")
	}
}

func TestAllocateRejectsBadDeps(t *testing.T) {
	a := New(3)
	r0, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	for _, deps := range [][]int{{-1}, {2}, {5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("deps %v accepted", deps)
				}
			}()
			a.Allocate(arch.IntALU, deps, 1, 1)
		}()
	}
	_ = r0
	// Self-dependency: the next free row is 1, so deps{1} must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self dependency accepted")
			}
		}()
		a.Allocate(arch.IntALU, []int{1}, 1, 1)
	}()
}

// TestRequestGatedOnDependency: a consumer must not request execution
// until its producer's result-available line asserts.
func TestRequestGatedOnDependency(t *testing.T) {
	a := New(4)
	prod, _ := a.Allocate(arch.IntMDU, nil, 4, 0)
	cons, _ := a.Allocate(arch.IntALU, []int{prod}, 1, 1)

	av := allAvail()
	reqs := a.Requests(av)
	if len(reqs) != 1 || reqs[0] != prod {
		t.Fatalf("initial requests = %v, want [%d]", reqs, prod)
	}

	a.Grant(prod) // latency 4: timer = 3
	for cycle := 0; cycle < 2; cycle++ {
		a.Tick()
		if a.Request(cons, av) {
			t.Fatalf("consumer requested at cycle %d, before producer result", cycle)
		}
	}
	a.Tick() // timer hits zero: result available
	if !a.ResultAvailable(prod) {
		t.Fatal("producer result not available after latency-1 ticks")
	}
	if !a.Request(cons, av) {
		t.Fatal("consumer not requesting after producer result available")
	}
}

// TestRequestGatedOnUnitAvailability: with the needed unit type
// unavailable the row must stay silent (Fig. 6's resource columns).
func TestRequestGatedOnUnitAvailability(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.FPMDU, nil, 5, 0)
	av := allAvail()
	av[arch.FPMDU] = false
	if a.Request(row, av) {
		t.Error("row requests with its unit unavailable")
	}
	av[arch.FPMDU] = true
	if !a.Request(row, av) {
		t.Error("row silent with its unit available")
	}
}

func TestGrantSingleCycleAssertsImmediately(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	a.Grant(row)
	if !a.ResultAvailable(row) {
		t.Error("latency-1 instruction did not assert result at grant (§4.1)")
	}
	if a.Request(row, allAvail()) {
		t.Error("scheduled row still requests execution")
	}
}

func TestGrantTimerCountdown(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.FPALU, nil, 3, 0)
	a.Grant(row) // timer = 2
	if a.ResultAvailable(row) {
		t.Fatal("result available immediately for latency 3")
	}
	a.Tick()
	if a.ResultAvailable(row) {
		t.Fatal("result available one cycle early")
	}
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Fatal("result not available after latency-1 ticks")
	}
}

func TestGrantPanicsOnInvalidState(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	a.Grant(row)
	for name, f := range map[string]func(){
		"double grant":   func() { a.Grant(row) },
		"grant unused":   func() { a.Grant(1) },
		"release unused": func() { a.Release(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReschedule(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.LSU, nil, 2, 0)
	a.Grant(row)
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Fatal("setup: result should be available")
	}
	a.Reschedule(row)
	if a.Scheduled(row) || a.ResultAvailable(row) {
		t.Error("reschedule did not reset scheduled/result state")
	}
	if !a.Request(row, allAvail()) {
		t.Error("rescheduled row does not request execution again")
	}
}

// TestExtendTimer models a load discovering a cache miss: the countdown
// grows and the result line stays down until the extended time elapses.
func TestExtendTimer(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.LSU, nil, 2, 0)
	a.Grant(row) // timer = 1
	a.ExtendTimer(row, 3)
	for i := 0; i < 3; i++ {
		a.Tick()
		if a.ResultAvailable(row) && i < 3 {
			t.Fatalf("result asserted %d cycles early", 3-i)
		}
	}
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Error("result not asserted after extended latency")
	}
}

func TestExtendTimerAfterResultRearms(t *testing.T) {
	a := New(2)
	row, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	a.Grant(row) // immediate result
	a.ExtendTimer(row, 2)
	if a.ResultAvailable(row) {
		t.Fatal("ExtendTimer did not de-assert the result line")
	}
	a.Tick()
	a.Tick()
	if !a.ResultAvailable(row) {
		t.Error("result not re-asserted after extension")
	}
}

// TestReleaseClearsColumns pins §4.1: retiring an instruction clears its
// column in every row, so dependents stop waiting, and newly allocated
// instructions in the freed row are not spuriously depended upon.
func TestReleaseClearsColumns(t *testing.T) {
	a := New(4)
	prod, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	cons, _ := a.Allocate(arch.IntALU, []int{prod}, 1, 1)
	a.Grant(prod)
	a.Release(prod)
	if a.DependsOn(cons, prod) {
		t.Error("consumer still depends on a retired producer")
	}
	if !a.Request(cons, allAvail()) {
		t.Error("consumer blocked by a retired producer")
	}
	// A new instruction in the freed row must not look like the old
	// producer.
	again, _ := a.Allocate(arch.FPMDU, nil, 5, 2)
	if again != prod {
		t.Fatalf("expected row reuse, got %d", again)
	}
	if a.DependsOn(cons, again) {
		t.Error("consumer depends on an unrelated instruction reusing the row")
	}
}

func TestCountsViews(t *testing.T) {
	a := New(arch.QueueSize)
	alu1, _ := a.Allocate(arch.IntALU, nil, 1, 0)
	a.Allocate(arch.IntALU, []int{alu1}, 1, 1) // dependent: unscheduled but not ready
	a.Allocate(arch.LSU, nil, 2, 2)
	fp, _ := a.Allocate(arch.FPMDU, nil, 5, 3)
	a.Grant(fp) // scheduled: excluded from both views

	req := a.RequiredCounts()
	if req != (arch.Counts{2, 0, 1, 0, 0}) {
		t.Errorf("RequiredCounts = %v", req)
	}
	ready := a.ReadyCounts()
	if ready != (arch.Counts{1, 0, 1, 0, 0}) {
		t.Errorf("ReadyCounts = %v", ready)
	}
}

// TestPaperExampleArray reproduces the Fig. 4/5 worked example. The two
// facts the text states explicitly are pinned exactly: the Load (entry 5)
// requires only the LSU and depends on nothing; the Multiply (entry 4)
// requires the IntMDU and depends only on the Subtract (entry 2).
func TestPaperExampleArray(t *testing.T) {
	a, rows := PaperExample()
	if len(rows) != 7 {
		t.Fatalf("paper example has %d rows, want 7", len(rows))
	}
	load := rows[4] // entry 5 (1-based in the paper)
	if a.Unit(load) != arch.LSU {
		t.Errorf("Load unit = %v, want LSU", a.Unit(load))
	}
	for j := 0; j < a.Size(); j++ {
		if a.DependsOn(load, j) {
			t.Errorf("Load depends on row %d; the paper says it depends on nothing", j)
		}
	}
	mul := rows[3] // entry 4
	sub := rows[1] // entry 2
	if a.Unit(mul) != arch.IntMDU {
		t.Errorf("Multiply unit = %v, want IntMDU", a.Unit(mul))
	}
	for j := 0; j < a.Size(); j++ {
		want := j == sub
		if a.DependsOn(mul, j) != want {
			t.Errorf("Multiply dependency on row %d = %v, want %v", j, a.DependsOn(mul, j), want)
		}
	}
	// Unit columns of all seven entries.
	wantUnits := []arch.UnitType{arch.IntALU, arch.IntALU, arch.IntALU,
		arch.IntMDU, arch.LSU, arch.FPMDU, arch.FPALU}
	for i, r := range rows {
		if a.Unit(r) != wantUnits[i] {
			t.Errorf("entry %d unit = %v, want %v", i+1, a.Unit(r), wantUnits[i])
		}
	}
}

// TestPaperExampleSchedules drives the example to completion with all
// units available and checks every instruction eventually executes in
// dependency order.
func TestPaperExampleSchedules(t *testing.T) {
	a, rows := PaperExample()
	granted := make(map[int]int) // row -> grant cycle
	av := allAvail()
	for cycle := 0; cycle < 100 && len(granted) < len(rows); cycle++ {
		for _, r := range a.Requests(av) {
			a.Grant(r)
			granted[r] = cycle
		}
		a.Tick()
	}
	if len(granted) != len(rows) {
		t.Fatalf("only %d of %d instructions granted", len(granted), len(rows))
	}
	for _, r := range rows {
		for j := 0; j < a.Size(); j++ {
			if a.DependsOn(r, j) && granted[j] >= granted[r] {
				t.Errorf("row %d granted at %d, not after its producer %d at %d",
					r, granted[r], j, granted[j])
			}
		}
	}
}

func TestDumpShape(t *testing.T) {
	a, _ := PaperExample()
	out := a.Dump([]string{"Shift", "Sub", "Add", "Mul", "Load", "FPMul", "FPAdd"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 { // header + 7 rows
		t.Fatalf("Dump has %d lines, want 8:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "IntMDU") || !strings.Contains(lines[0], "E7") {
		t.Errorf("Dump header missing columns: %q", lines[0])
	}
	if !strings.HasPrefix(lines[5], "Load") {
		t.Errorf("row labels not applied: %q", lines[5])
	}
}

// TestRowCircuitEquivalence proves the Fig. 6 gate network equals the
// behavioural request predicate over randomized row states.
func TestRowCircuitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20000; trial++ {
		var needUnit, availUnit [arch.NumUnitTypes]bool
		needUnit[rng.Intn(arch.NumUnitTypes)] = true // one-hot, as in the array
		for i := range availUnit {
			availUnit[i] = rng.Intn(2) == 1
		}
		n := arch.QueueSize
		depNeed := make([]bool, n)
		depOK := make([]bool, n)
		for i := 0; i < n; i++ {
			depNeed[i] = rng.Intn(3) == 0
			depOK[i] = rng.Intn(2) == 1
		}
		scheduled := rng.Intn(2) == 1

		want := !scheduled
		for t := range needUnit {
			if needUnit[t] && !availUnit[t] {
				want = false
			}
		}
		for i := range depNeed {
			if depNeed[i] && !depOK[i] {
				want = false
			}
		}
		got := CircuitRequest(needUnit, availUnit, depNeed, depOK, scheduled)
		if got != want {
			t.Fatalf("circuit %v != behaviour %v (unit=%v avail=%v need=%v ok=%v sched=%v)",
				got, want, needUnit, availUnit, depNeed, depOK, scheduled)
		}
	}
}

// TestNoRequestEverViolatesDependencies is a liveness/safety property
// under random operation sequences: whenever a row requests execution all
// of its recorded dependencies have asserted results.
func TestNoRequestEverViolatesDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := New(arch.QueueSize)
	live := map[int]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0: // allocate with random deps on live rows
			var deps []int
			for r := range live {
				if rng.Intn(3) == 0 {
					deps = append(deps, r)
				}
			}
			unit := arch.UnitType(rng.Intn(arch.NumUnitTypes))
			if row, ok := a.Allocate(unit, deps, 1+rng.Intn(6), uint64(step)); ok {
				live[row] = true
			}
		case 1: // grant a random requester
			av := allAvail()
			reqs := a.Requests(av)
			if len(reqs) > 0 {
				a.Grant(reqs[rng.Intn(len(reqs))])
			}
		case 2: // retire a random completed row
			for r := range live {
				if a.Scheduled(r) && a.ResultAvailable(r) {
					a.Release(r)
					delete(live, r)
					break
				}
			}
		case 3:
			a.Tick()
		}
		// Invariant check.
		for _, r := range a.Requests(allAvail()) {
			for j := 0; j < a.Size(); j++ {
				if a.DependsOn(r, j) && !a.ResultAvailable(j) {
					t.Fatalf("step %d: row %d requests with unsatisfied dependency on %d", step, r, j)
				}
			}
		}
	}
}

// TestTickReportsAssertion: Tick reports exactly the cycles on which a
// countdown reached zero and raised its result-available line.
func TestTickReportsAssertion(t *testing.T) {
	a := New(4)
	row, _ := a.Allocate(arch.IntMDU, nil, 3, 0)
	if a.Tick() {
		t.Fatal("Tick on an ungranted row reported an assertion")
	}
	a.Grant(row) // timer 2
	for cycle, want := range []bool{false, true, false} {
		if got := a.Tick(); got != want {
			t.Fatalf("tick %d after grant: asserted = %v, want %v", cycle+1, got, want)
		}
	}
	if !a.ResultAvailable(row) {
		t.Fatal("result line not raised")
	}
}
