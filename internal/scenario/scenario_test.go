package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

func TestParsePlanRoundTrip(t *testing.T) {
	t.Parallel()
	plan, err := ParsePlan("crash@500x2, edge@0.001, reset@1000")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: KindCrash, Step: 500, Count: 2},
		{Kind: KindEdge, Rate: 0.001},
		{Kind: KindReset, Step: 1000},
	}
	if len(plan.Events) != len(want) {
		t.Fatalf("parsed %+v", plan.Events)
	}
	for i, f := range plan.Events {
		if f != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, f, want[i])
		}
	}
	if s := plan.String(); s != "crash@500x2,edge@0.001,reset@1000" {
		t.Fatalf("String() = %q", s)
	}
	reparsed, err := ParsePlan(plan.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.String() != plan.String() {
		t.Fatalf("round trip diverged: %q vs %q", reparsed.String(), plan.String())
	}
	if !plan.HasCrashes() {
		t.Fatal("HasCrashes false")
	}

	if empty, err := ParsePlan("  "); err != nil || empty != nil {
		t.Fatalf("empty plan: %v, %v", empty, err)
	}
	for _, bad := range []string{
		"crash",        // no spec
		"boom@5",       // unknown kind
		"crash@0",      // step must be ≥ 1
		"crash@-3",     // negative step
		"edge@1.5",     // rate outside (0, 1)
		"crash@5x0",    // count must be ≥ 1
		"crash@5xtwo",  // malformed count
		"crash@fast",   // malformed number
		"reset@1e-2x0", // malformed count on a rate
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("bad plan %q accepted", bad)
		}
	}
}

func TestCrashable(t *testing.T) {
	t.Parallel()
	c := protocols.SimpleGlobalLine()
	aug, dead, err := Crashable(c.Proto)
	if err != nil {
		t.Fatal(err)
	}
	if aug.Size() != c.Proto.Size()+1 || int(dead) != c.Proto.Size() {
		t.Fatalf("sizes: aug %d, dead %d, original %d", aug.Size(), dead, c.Proto.Size())
	}
	if aug.StateName(dead) != CrashStateName {
		t.Fatalf("dead state named %q", aug.StateName(dead))
	}
	if aug.IsOutput(dead) {
		t.Fatal("crash sink is an output state")
	}
	for s := 0; s < aug.Size(); s++ {
		for _, edge := range []bool{false, true} {
			if aug.EffectiveOn(dead, core.State(s), edge) || aug.EffectiveOn(core.State(s), dead, edge) {
				t.Fatalf("crash sink has an effective transition with state %d (edge=%v)", s, edge)
			}
		}
	}
	// Original transitions and output membership are preserved.
	for s := 0; s < c.Proto.Size(); s++ {
		if aug.IsOutput(core.State(s)) != c.Proto.IsOutput(core.State(s)) {
			t.Fatalf("output membership of state %d changed", s)
		}
		for q := 0; q < c.Proto.Size(); q++ {
			for _, edge := range []bool{false, true} {
				if aug.EffectiveOn(core.State(s), core.State(q), edge) != c.Proto.EffectiveOn(core.State(s), core.State(q), edge) {
					t.Fatalf("effectiveness of (%d, %d, %v) changed", s, q, edge)
				}
			}
		}
	}
}

// TestCrashPlanAllEngines runs a crash plan end to end on all three
// engines: the victims must end dead, isolated and outside Qout, and
// the run must still reach quiescence.
func TestCrashPlanAllEngines(t *testing.T) {
	t.Parallel()
	plan := &FaultPlan{Events: []Fault{
		{Kind: KindCrash, Step: 40},
		{Kind: KindCrash, Step: 120},
	}}
	c := protocols.CycleCover()
	prepared, err := plan.Prepare(c.Proto)
	if err != nil {
		t.Fatal(err)
	}
	dead := core.State(c.Proto.Size())
	for _, engine := range []core.Engine{core.EngineBaseline, core.EngineSparse, core.EngineBatch} {
		for seed := uint64(1); seed <= 4; seed++ {
			inj := prepared.NewInjection(seed)
			res, err := core.Run(prepared.Proto, 16, core.Options{
				Seed:     seed,
				Engine:   engine,
				Detector: core.QuiescenceDetector(),
				Injector: inj,
			})
			if err != nil {
				t.Fatalf("engine=%s seed=%d: %v", engine, seed, err)
			}
			if !res.Converged {
				t.Fatalf("engine=%s seed=%d: no quiescence: %+v", engine, seed, res)
			}
			if got := inj.Counts(); got.Crashes != 2 {
				t.Fatalf("engine=%s seed=%d: crash count %+v", engine, seed, got)
			}
			deadSeen := 0
			for u := 0; u < res.Final.N(); u++ {
				if res.Final.Node(u) == dead {
					deadSeen++
					if res.Final.Degree(u) != 0 {
						t.Fatalf("engine=%s seed=%d: dead node %d kept %d edges", engine, seed, u, res.Final.Degree(u))
					}
				}
			}
			if deadSeen != 2 {
				t.Fatalf("engine=%s seed=%d: %d dead nodes, want 2", engine, seed, deadSeen)
			}
		}
	}
}

// TestRatePlanDeterminism: rate-triggered faults are reproducible per
// (plan seed, run seed) and actually fire.
func TestRatePlanDeterminism(t *testing.T) {
	t.Parallel()
	plan := &FaultPlan{Seed: 3, Events: []Fault{
		{Kind: KindEdge, Rate: 0.02},
		{Kind: KindReset, Rate: 0.005},
	}}
	c := protocols.GlobalStar()
	prepared, err := plan.Prepare(c.Proto)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.Proto != c.Proto {
		t.Fatal("crash-free plan must not augment the protocol")
	}
	run := func() (Counts, string) {
		inj := prepared.NewInjection(9)
		res, err := core.Run(prepared.Proto, 12, core.Options{
			Seed:     9,
			Detector: core.Detector{Trigger: core.TriggerInterval, Stable: func(*core.Config) bool { return false }},
			MaxSteps: 4000,
			Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj.Counts(), res.Final.Fingerprint()
	}
	counts1, fp1 := run()
	counts2, fp2 := run()
	if counts1 != counts2 || fp1 != fp2 {
		t.Fatalf("rate plan not deterministic: %+v/%q vs %+v/%q", counts1, fp1, counts2, fp2)
	}
	if counts1.EdgeDeletions == 0 || counts1.Resets == 0 {
		t.Fatalf("rate plan never fired: %+v", counts1)
	}
}

func TestValidateRejects(t *testing.T) {
	t.Parallel()
	bad := []*FaultPlan{
		{},
		{Events: []Fault{{Kind: "boom", Step: 1}}},
		{Events: []Fault{{Kind: KindCrash}}},
		{Events: []Fault{{Kind: KindCrash, Step: 5, Rate: 0.1}}},
		{Events: []Fault{{Kind: KindEdge, Step: -500, Rate: 0.001}}},
		{Events: []Fault{{Kind: KindEdge, Step: -500}}},
		{Events: []Fault{{Kind: KindEdge, Rate: 1.0}}},
		{Events: []Fault{{Kind: KindEdge, Rate: -0.1}}},
		{Events: []Fault{{Kind: KindReset, Step: 5, Count: -1}}},
	}
	for i, plan := range bad {
		if err := plan.Validate(); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, plan)
		}
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

// FuzzParsePlan drives the -faults flag syntax, outside input from
// spec files and CLIs: a plan that parses must re-parse from its
// String() to the same string.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"crash@500x2, edge@0.001, reset@1000",
		"crash@400,crash@800",
		"reset@0.0005,edge@0.001x2",
		"crash@20000,edge@40000x4",
		"edge@1e-3x+2",
		"reset@+7,,crash@1",
		"crash@0",
		"edge@1.5",
		"crash@5xtwo",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParsePlan(s)
		if err != nil {
			return
		}
		out := plan.String()
		again, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("ParsePlan(%q) rendered %q, which does not re-parse: %v", s, out, err)
		}
		if got := again.String(); got != out {
			t.Fatalf("ParsePlan(%q) rendered %q, which re-parses to %q", s, out, got)
		}
	})
}
