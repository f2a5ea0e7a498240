package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	prog, err := Assemble(`
		li r1, 10
		li r2, 32
		mul r3, r1, r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, Options{Policy: PolicySteering})
	stats, err := m.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reg(3) != 320 {
		t.Errorf("r3 = %d, want 320", m.Reg(3))
	}
	if !m.Halted() || !stats.Halted {
		t.Error("machine not halted")
	}
	if stats.IPC() <= 0 {
		t.Error("IPC not positive")
	}
}

func TestAllPoliciesRunAllKernels(t *testing.T) {
	policies := []Policy{
		PolicySteering, PolicyStaticInteger, PolicyStaticMemory,
		PolicyStaticFloating, PolicyNone, PolicyFullReconfig,
		PolicyOracle, PolicyRandom, PolicyDemand, PolicyPrefetch,
	}
	for _, k := range Kernels() {
		for _, pol := range policies {
			t.Run(k.Name+"/"+pol.String(), func(t *testing.T) {
				params := DefaultParams()
				if pol == PolicyOracle {
					params.ReconfigLatency = 1
				}
				if _, err := RunKernel(k, Options{Params: params, Policy: pol, Seed: 11}, 10_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, pol := range []Policy{PolicySteering, PolicyNone, PolicyOracle} {
		name := pol.String()
		back, err := ParsePolicy(name)
		if err != nil || back != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if !strings.HasPrefix(Policy(99).String(), "Policy(") {
		t.Error("unknown policy String format")
	}
}

func TestMemoryAndRegisterAccessors(t *testing.T) {
	prog := MustAssemble(`
		lw r2, 0(r1)
		slli r2, r2, 1
		sw r2, 4(r1)
		halt
	`)
	m := NewMachine(prog, Options{Policy: PolicyNone})
	m.SetReg(1, 256)
	m.WriteWords(256, []uint32{21})
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	out := m.ReadWords(260, 1)
	if out[0] != 42 {
		t.Errorf("stored word = %d, want 42", out[0])
	}
}

func TestFRegAccessor(t *testing.T) {
	prog := MustAssemble(`
		li r1, 9
		fcvt.s.w f2, r1
		halt
	`)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.FReg(2) == 0 {
		t.Error("f2 still zero")
	}
}

func TestConfigurationResidency(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixFPHeavy, Instructions: 400}}, 1)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	sel, _, ok := m.ConfigurationResidency()
	if !ok {
		t.Fatal("steering machine reported no residency")
	}
	total := 0
	for _, n := range sel {
		total += n
	}
	if total == 0 {
		t.Error("no selections recorded")
	}
	if sel[3] == 0 {
		t.Error("FP workload never selected the floating configuration")
	}
	// Non-steering machines report ok=false.
	m2 := NewMachine(prog, Options{Policy: PolicyNone})
	if _, _, ok := m2.ConfigurationResidency(); ok {
		t.Error("FFU-only machine reported steering residency")
	}
}

func TestReportJSON(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixUniform, Instructions: 200}}, 2)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if doc["policy"] != "steering" {
		t.Errorf("policy = %v", doc["policy"])
	}
	if doc["ipc"].(float64) <= 0 {
		t.Error("ipc not positive")
	}
	if doc["steering"] != true {
		t.Error("steering flag missing")
	}
	stats := doc["stats"].(map[string]interface{})
	if stats["Retired"].(float64) <= 0 {
		t.Error("retired count missing from stats")
	}
}

func TestReportContainsKeySections(t *testing.T) {
	prog := Synthesize([]Phase{{Mix: MixUniform, Instructions: 300}}, 2)
	m := NewMachine(prog, Options{Policy: PolicySteering})
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	report := m.Report()
	for _, want := range []string{"IPC:", "reconfigs:", "selections:", "final fabric:", "policy:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestAssembleUnitAndRun(t *testing.T) {
	u, err := AssembleUnit(`
		.data 0x2000
	tbl:	.word 5, 7, 11
		.text
		la r1, tbl
		lw r2, 0(r1)
		lw r3, 4(r1)
		lw r4, 8(r1)
		add r5, r2, r3
		add r5, r5, r4
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachineFromUnit(u, Options{Policy: PolicySteering})
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.Reg(5) != 23 {
		t.Errorf("sum = %d, want 23", m.Reg(5))
	}
}

func TestExampleProgramsRun(t *testing.T) {
	cases := []struct {
		path  string
		check func(m *Machine) error
	}{
		{"examples/programs/histogram.s", func(m *Machine) error {
			if got := m.Reg(9); got != 32 {
				return fmt.Errorf("histogram sanity sum = %d, want 32", got)
			}
			return nil
		}},
		{"examples/programs/polynomial.s", func(m *Machine) error {
			// y[1] = p(1.0) = 2 - 3 + 4 - 5 = -2.0
			ys := m.ReadWords(0x1000+64+4, 1)
			if got := math.Float32frombits(ys[0]); got != -2.0 {
				return fmt.Errorf("p(1.0) = %v, want -2.0", got)
			}
			return nil
		}},
	}
	for _, c := range cases {
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		u, err := AssembleUnit(string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		m := NewMachineFromUnit(u, Options{Policy: PolicySteering})
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if err := c.check(m); err != nil {
			t.Errorf("%s: %v", c.path, err)
		}
	}
}

// TestMinResidencyOption: the residency timer reaches every policy
// Options.MinResidency names — fewer spans are loaded with it than
// without — and on saxpy it recovers steering's churn loss.
func TestMinResidencyOption(t *testing.T) {
	run := func(kernel string, policy Policy, residency int) (Stats, int) {
		t.Helper()
		k := KernelByName(kernel)
		m := NewMachine(k.Program(), Options{Policy: policy, MinResidency: residency})
		k.Setup(m.proc.Memory(), m.proc.SetReg)
		st, err := m.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Validate(m.proc.Reg, m.proc.Memory()); err != nil {
			t.Fatal(err)
		}
		return st, m.Reconfigurations()
	}
	for _, tc := range []struct {
		kernel    string
		policy    Policy
		residency int
	}{
		{"saxpy", PolicySteering, 4},
		{"sort", PolicyPrefetch, 64},
		{"sort", PolicyOracle, 64},
	} {
		base, baseSpans := run(tc.kernel, tc.policy, 0)
		damped, dampedSpans := run(tc.kernel, tc.policy, tc.residency)
		if dampedSpans >= baseSpans {
			t.Errorf("%s on %s: residency %d loaded %d spans, %d without it",
				tc.policy, tc.kernel, tc.residency, dampedSpans, baseSpans)
		}
		if tc.policy == PolicySteering && damped.IPC() <= base.IPC() {
			t.Errorf("residency damping did not help saxpy: %.3f vs %.3f", damped.IPC(), base.IPC())
		}
	}
}

func TestManagerLookaheadParam(t *testing.T) {
	k := KernelByName("saxpy")
	params := DefaultParams()
	params.ManagerLookahead = true
	st, err := RunKernel(k, Options{Params: params, Policy: PolicySteering}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0.5 {
		t.Errorf("lookahead saxpy IPC = %.3f, expected the recovered ~0.61", st.IPC())
	}
}

func TestCustomBasisRoundTripAndUse(t *testing.T) {
	src := `[
	  {"name": "a", "units": ["IntALU","IntALU","IntALU","IntALU","IntALU","IntALU","IntALU","IntALU"]},
	  {"name": "b", "units": ["LSU","LSU","LSU","LSU","IntALU"]},
	  {"name": "c", "units": ["FPALU","FPMDU","IntALU","LSU"]}
	]`
	basis, err := ParseBasis([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalBasis(basis)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBasis(out)
	if err != nil || back != basis {
		t.Fatalf("marshal round trip failed: %v", err)
	}

	prog := Synthesize([]Phase{{Mix: MixFPHeavy, Instructions: 400}}, 4)
	m := NewMachine(prog, Options{Policy: PolicySteering, Basis: &basis})
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	sel, _, ok := m.ConfigurationResidency()
	if !ok {
		t.Fatal("no residency")
	}
	if sel[3] == 0 {
		t.Error("custom FP configuration never selected on an FP workload")
	}
	// A custom basis also drives the static policies.
	m2 := NewMachine(prog, Options{Policy: PolicyStaticInteger, Basis: &basis})
	if _, err := m2.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestSteeringVersusStaticHeadline is the repo's headline claim in
// miniature: on a phase-alternating workload, steering beats every
// mismatched static configuration.
func TestSteeringVersusStaticHeadline(t *testing.T) {
	prog := Synthesize([]Phase{
		{Mix: MixIntHeavy, Instructions: 500}, {Mix: MixFPHeavy, Instructions: 500}, {Mix: MixMemHeavy, Instructions: 500}, {Mix: MixFPHeavy, Instructions: 500},
	}, 3)
	run := func(pol Policy) float64 {
		m := NewMachine(prog, Options{Policy: pol})
		stats, err := m.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return stats.IPC()
	}
	steering := run(PolicySteering)
	ffuOnly := run(PolicyNone)
	if steering <= ffuOnly {
		t.Errorf("steering IPC %.3f not above FFU-only IPC %.3f", steering, ffuOnly)
	}
}
