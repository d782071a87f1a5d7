package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/processes"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

// testPoints builds a small mixed grid: a Table 2 constructor sweep
// plus a Table 1 process with a distinguished-node initial
// configuration.
func testPoints(t *testing.T, trials int) []Point {
	t.Helper()
	cc := protocols.CycleCover()
	proc := processes.OneWayEpidemic()
	points := []Point{
		{Protocol: "cycle-cover", N: 16, Trials: trials, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, Metric: MetricConvergenceTime},
		{Protocol: "cycle-cover", N: 24, Trials: trials, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, Metric: MetricConvergenceTime},
	}
	initial, err := proc.Initial(32)
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, Point{
		Protocol: proc.Proto.Name(), N: 32, Trials: trials, BaseSeed: 7,
		Proto: proc.Proto, Detector: proc.Detector, Metric: MetricSteps,
		Expected: proc.Expected(32),
		Initial:  func(int) (*core.Config, error) { return initial, nil },
	})
	return points
}

func stripDurations(runs []RunRecord) []RunRecord {
	out := make([]RunRecord, len(runs))
	copy(out, runs)
	for i := range out {
		out[i].DurationNS = 0
	}
	return out
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	const trials = 8
	var baseline Outcome
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		out, err := Execute(context.Background(), testPoints(t, trials), Options{
			Workers:  workers,
			KeepRuns: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out.Aggregates) != 3 {
			t.Fatalf("workers=%d: %d aggregates", workers, len(out.Aggregates))
		}
		for _, agg := range out.Aggregates {
			if agg.Converged != trials || agg.Failures != 0 || agg.Mean <= 0 {
				t.Fatalf("workers=%d: bad aggregate %+v", workers, agg)
			}
		}
		if i == 0 {
			baseline = out
			continue
		}
		// Bit-identical aggregates and identically ordered raw runs,
		// regardless of the worker count.
		if !reflect.DeepEqual(out.Aggregates, baseline.Aggregates) {
			t.Fatalf("workers=%d aggregates diverge:\n%+v\nvs workers=1:\n%+v",
				workers, out.Aggregates, baseline.Aggregates)
		}
		if !reflect.DeepEqual(stripDurations(out.Runs), stripDurations(baseline.Runs)) {
			t.Fatalf("workers=%d raw runs diverge from workers=1", workers)
		}
	}
}

func TestOnRunStreamsInGlobalOrder(t *testing.T) {
	t.Parallel()
	var seen []int
	out, err := Execute(context.Background(), testPoints(t, 4), Options{
		Workers: 4,
		OnRun: func(rec RunRecord) {
			seen = append(seen, rec.Point*100+rec.Trial)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 {
		t.Fatalf("callback fired %d times, want 12", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("callback out of global order: %v", seen)
		}
	}
	if out.Workers != 4 {
		t.Fatalf("workers=%d, want 4", out.Workers)
	}
}

func TestCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	// A grid big and slow enough that cancellation lands mid-flight:
	// cancel from the first progress callback.
	sgl := protocols.SimpleGlobalLine()
	points := []Point{{
		Protocol: "simple-global-line", N: 20, Trials: 64, BaseSeed: 1,
		Proto: sgl.Proto, Detector: sgl.Detector,
	}}
	done := make(chan struct{})
	var out Outcome
	var err error
	go func() {
		defer close(done)
		out, err = Execute(ctx, points, Options{Workers: 2, OnRun: func(RunRecord) { cancel() }})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Aggregates[0].Converged >= 64 {
		t.Fatal("cancellation did not stop the sweep early")
	}
}

func TestPerRunTimeout(t *testing.T) {
	t.Parallel()
	// A protocol that keeps toggling and never stabilizes: its detector
	// never fires, so only the timeout can end the run early.
	p := core.MustProtocol("ping", []string{"a", "b"}, 0, nil, []core.Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1},
		{A: 1, B: 1, Edge: false, OutA: 0, OutB: 0},
		{A: 0, B: 1, Edge: false, OutA: 1, OutB: 0},
	})
	never := core.Detector{Trigger: core.TriggerInterval, Stable: func(*core.Config) bool { return false }}
	out, err := Execute(context.Background(), []Point{{
		Protocol: "ping", N: 64, Trials: 3, BaseSeed: 1,
		Proto: p, Detector: never,
	}}, Options{Workers: 2, Timeout: 20 * time.Millisecond, KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregates[0]
	if agg.Failures != 3 || agg.Stopped != 3 || agg.Converged != 0 {
		t.Fatalf("timeout aggregate %+v", agg)
	}
	for _, rec := range out.Runs {
		if !rec.Stopped || rec.Converged {
			t.Fatalf("run not stopped by timeout: %+v", rec)
		}
	}
}

func TestExecuteValidates(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	cases := []Point{
		{Protocol: "no-proto", N: 8, Trials: 1},
		{Protocol: "cycle-cover", N: 0, Trials: 1, Proto: cc.Proto},
		{Protocol: "cycle-cover", N: 8, Trials: 0, Proto: cc.Proto},
	}
	for _, pt := range cases {
		if _, err := Execute(context.Background(), []Point{pt}, Options{}); err == nil {
			t.Fatalf("invalid point accepted: %+v", pt)
		}
	}
}

func TestInitialErrorSurfaces(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	boom := func(int) (*core.Config, error) { return nil, context.DeadlineExceeded }
	_, err := Execute(context.Background(), []Point{{
		Protocol: "cycle-cover", N: 8, Trials: 4, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector, Initial: boom,
	}}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want the initial-builder error", err)
	}
}

func TestMeanMatchesSequentialSemantics(t *testing.T) {
	t.Parallel()
	mm := core.MustProtocol("mm", []string{"a", "b"}, 0, nil, []core.Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	det := core.Detector{Trigger: core.TriggerEffective, Stable: func(cfg *core.Config) bool {
		return cfg.Count(0) <= 1
	}}
	mean, failures, err := Mean(mm, 10, 5, 1, core.Options{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 || mean <= 0 {
		t.Fatalf("mean %f failures %d", mean, failures)
	}
	if _, _, err := Mean(mm, 10, 0, 1, core.Options{Detector: det}); err == nil {
		t.Fatal("trials=0 accepted")
	}
	// A caller-supplied Stop hook must reach the engine: with an
	// always-true hook no run can converge.
	_, failures3, err := Mean(mm, 10, 3, 1, core.Options{
		Detector: det,
		Stop:     func() bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures3 != 3 {
		t.Fatalf("Stop hook ignored: %d failures, want 3", failures3)
	}
	// A stateful scheduler must still work (forced sequential).
	mean2, failures2, err := Mean(mm, 10, 5, 1, core.Options{
		Detector:  det,
		Scheduler: &core.RoundRobinScheduler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures2 != 0 || mean2 <= 0 {
		t.Fatalf("round-robin mean %f failures %d", mean2, failures2)
	}
}

func TestSpecCompile(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Trials: 3,
		Seed:   5,
		Items: []Item{
			{Name: "cycle-cover", Sizes: []int{8, 16}},
			{Name: "One-Way-Epidemic", Kind: "process", Sizes: []int{16}},
			{Kind: "replication", Sizes: []int{8}},
		},
		Schedulers: []string{"uniform", "round-robin"},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// (2 + 1 + 1 sizes) × 2 schedulers.
	if len(points) != 8 {
		t.Fatalf("%d points, want 8", len(points))
	}
	if points[0].Protocol != "cycle-cover" || points[0].N != 8 || points[0].Scheduler != "uniform" {
		t.Fatalf("first point %+v", points[0])
	}
	if points[1].NewScheduler == nil {
		t.Fatal("round-robin point has no scheduler factory")
	}
	for _, pt := range points {
		if pt.Protocol == "One-Way-Epidemic" {
			if pt.Expected <= 0 || pt.Initial == nil {
				t.Fatalf("process point not resolved: %+v", pt)
			}
		}
		if pt.Protocol == "graph-replication" && pt.Initial == nil {
			t.Fatalf("replication point has no initial builder")
		}
	}
	// The compiled grid must actually execute.
	out, err := Execute(context.Background(), points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range out.Aggregates {
		if agg.Failures > 0 {
			t.Fatalf("compiled spec run failed: %+v", agg)
		}
	}
}

func TestSpecCompileRejects(t *testing.T) {
	t.Parallel()
	bad := []Spec{
		{Trials: 1},
		{Trials: 0, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover"}}},
		{Trials: 1, Items: []Item{{Name: "nope", Sizes: []int{8}}}},
		{Trials: 1, Items: []Item{{Name: "nope", Kind: "process", Sizes: []int{8}}}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Kind: "wat", Sizes: []int{8}}}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Schedulers: []string{"nope"}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Metric: "nope"},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Engine: "nope"},
		// The indexed engines require the uniform scheduler ("fast" is
		// the retired dense-index engine's alias for sparse).
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Engine: "fast", Schedulers: []string{"round-robin"}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Engine: "batch", Schedulers: []string{"round-robin"}},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}, Engine: "sparse", Schedulers: []string{"permutation"}},
		// Forced engines must fit their population caps at compile time,
		// not as all-failure aggregates at run time.
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{1<<20 + 1}}}, Engine: "batch"},
		{Trials: 1, Items: []Item{{Name: "cycle-cover", Sizes: []int{1<<20 + 1}}}, Engine: "sparse"},
	}
	for i, spec := range bad {
		if _, err := spec.Compile(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestSpecCompileFaults: the "faults" and "detector" spec fields flow
// into points, with the quiescence default for fault items, and
// invalid combinations are rejected at compile time.
func TestSpecCompileFaults(t *testing.T) {
	t.Parallel()
	plan := &scenario.FaultPlan{Events: []scenario.Fault{{Kind: scenario.KindCrash, Step: 64}}}
	spec := Spec{
		Trials: 2,
		Seed:   1,
		Faults: plan,
		Items:  []Item{{Name: "cycle-cover", Sizes: []int{12}}},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Faults != plan {
		t.Fatalf("compiled points %+v", points)
	}
	// Fault items default to the quiescence detector (gated, so the
	// indexed engines answer it in O(1)).
	if points[0].Detector.Gate != core.GateQuiescence {
		t.Fatalf("fault item detector gate %v, want quiescence", points[0].Detector.Gate)
	}
	out, err := Execute(context.Background(), points, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Aggregates[0].Converged != 2 {
		t.Fatalf("fault spec runs did not converge: %+v", out.Aggregates[0])
	}
	for _, rec := range out.Runs {
		if rec.FaultCrashes != 1 {
			t.Fatalf("fault spec run missed its crash: %+v", rec)
		}
	}

	// Explicit detector override wins over the fault default.
	spec.Detector = "edge-quiescence"
	points, err = spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Detector.Gate != core.GateEdgeQuiescence {
		t.Fatalf("detector override ignored: gate %v", points[0].Detector.Gate)
	}

	// An explicit "target" keeps the registry detector (no gate) even
	// with faults present — only the unset default swaps to quiescence.
	spec.Detector = "target"
	points, err = spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Detector.Gate != core.GateNone {
		t.Fatalf("explicit target detector replaced: gate %v", points[0].Detector.Gate)
	}

	// An explicit empty per-item plan opts the control row out of the
	// spec-level faults (and therefore out of the quiescence default).
	spec.Detector = ""
	spec.Items = []Item{
		{Name: "cycle-cover", Sizes: []int{12}, Faults: &scenario.FaultPlan{Events: []scenario.Fault{}}},
		{Name: "cycle-cover", Sizes: []int{12}},
	}
	points, err = spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Faults != nil || points[0].Detector.Gate != core.GateNone {
		t.Fatalf("control item still carries faults: %+v", points[0])
	}
	if points[1].Faults != plan {
		t.Fatalf("spec-level faults dropped from the second item: %+v", points[1])
	}

	bad := []Spec{
		// Unknown detector name.
		{Trials: 1, Detector: "nope", Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}},
		// Crash faults on items that build their own initial configuration.
		{Trials: 1, Faults: plan, Items: []Item{{Name: "One-Way-Epidemic", Kind: "process", Sizes: []int{16}}}},
		{Trials: 1, Faults: plan, Items: []Item{{Kind: "replication", Sizes: []int{8}}}},
		// Invalid plan.
		{Trials: 1, Faults: &scenario.FaultPlan{Events: []scenario.Fault{{Kind: "boom", Step: 1}}},
			Items: []Item{{Name: "cycle-cover", Sizes: []int{8}}}},
	}
	for i, s := range bad {
		if _, err := s.Compile(); err == nil {
			t.Fatalf("bad fault spec %d accepted", i)
		}
	}
}

// TestSpecCompileSchedulers: the weighted and biased schedulers
// resolve through the factory and stay off the indexed engines.
func TestSpecCompileSchedulers(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Trials:     2,
		Seed:       1,
		Schedulers: []string{"weighted", "biased"},
		Items:      []Item{{Name: "cycle-cover", Sizes: []int{10}}},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].NewScheduler == nil || points[1].NewScheduler == nil {
		t.Fatalf("compiled points %+v", points)
	}
	out, err := Execute(context.Background(), points, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, agg := range out.Aggregates {
		if agg.Converged != 2 {
			t.Fatalf("scheduler point %d did not converge: %+v", i, agg)
		}
	}
	for _, rec := range out.Runs {
		if rec.Engine != "baseline" {
			t.Fatalf("non-uniform scheduler ran on %q", rec.Engine)
		}
	}
	spec.Engine = "sparse"
	if _, err := spec.Compile(); err == nil {
		t.Fatal("sparse engine with a weighted scheduler accepted")
	}
}

// TestSpecCompileSparseEngine checks the sparse engine flows through a
// spec end to end.
func TestSpecCompileSparseEngine(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Trials: 2,
		Seed:   3,
		Engine: "sparse",
		Items:  []Item{{Name: "cycle-cover", Sizes: []int{12}}},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Engine != core.EngineSparse {
		t.Fatalf("compiled points %+v", points)
	}
	out, err := Execute(context.Background(), points, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Aggregates[0].Converged != 2 {
		t.Fatalf("sparse spec runs did not converge: %+v", out.Aggregates[0])
	}
	for _, rec := range out.Runs {
		if rec.Engine != "sparse" {
			t.Fatalf("run executed on %q, want sparse", rec.Engine)
		}
	}
}

// TestFaultPointEndToEnd: a crash plan flows through Execute — records
// carry the plan label and per-run fault tallies, the aggregate is
// labelled, and runs still converge (to quiescence) on every engine.
func TestFaultPointEndToEnd(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	plan := &scenario.FaultPlan{Events: []scenario.Fault{
		{Kind: scenario.KindCrash, Step: 30},
		{Kind: scenario.KindEdge, Step: 90},
	}}
	for _, engine := range []core.Engine{core.EngineBaseline, core.EngineSparse, core.EngineBatch} {
		out, err := Execute(context.Background(), []Point{{
			Protocol: "cycle-cover", N: 16, Trials: 4, BaseSeed: 1,
			Proto: cc.Proto, Detector: core.QuiescenceDetector(),
			Engine: engine, Faults: plan, Metric: MetricLargestComponent,
		}}, Options{KeepRuns: true})
		if err != nil {
			t.Fatalf("engine=%s: %v", engine, err)
		}
		agg := out.Aggregates[0]
		if agg.Converged != 4 || agg.Faults != plan.String() {
			t.Fatalf("engine=%s: aggregate %+v", engine, agg)
		}
		for _, rec := range out.Runs {
			if rec.Faults != plan.String() || rec.FaultCrashes != 1 {
				t.Fatalf("engine=%s: record misses fault fields: %+v", engine, rec)
			}
			// One node crashed, so at most 15 output nodes survive.
			if rec.Value < 1 || rec.Value > 15 {
				t.Fatalf("engine=%s: implausible largest component %f", engine, rec.Value)
			}
		}
	}
}

// TestFaultPointRejections: crash faults on points with custom initial
// configurations must be rejected (the run protocol is augmented), as
// must invalid plans.
func TestFaultPointRejections(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	crash := &scenario.FaultPlan{Events: []scenario.Fault{{Kind: scenario.KindCrash, Step: 5}}}
	initial := func(int) (*core.Config, error) { return core.NewConfig(cc.Proto, 8), nil }
	if _, err := Execute(context.Background(), []Point{{
		Protocol: "cycle-cover", N: 8, Trials: 1, Proto: cc.Proto,
		Detector: core.QuiescenceDetector(), Faults: crash, Initial: initial,
	}}, Options{}); err == nil {
		t.Fatal("crash plan with a custom initial configuration accepted")
	}
	if _, err := Execute(context.Background(), []Point{{
		Protocol: "cycle-cover", N: 8, Trials: 1, Proto: cc.Proto,
		Faults: &scenario.FaultPlan{},
	}}, Options{}); err == nil {
		t.Fatal("empty fault plan accepted")
	}
}

// TestDynPointExecutes: dynamic-protocol points run through the
// campaign pool, and the campaign's per-run timeout reaches RunDyn via
// the new Stop hook — the cancellation path Section-6 runs previously
// bypassed.
func TestDynPointExecutes(t *testing.T) {
	t.Parallel()
	matching := &core.DynProtocol{
		Name:    "dyn-matching",
		Initial: 0,
		Apply: func(a, b core.DynState, edge bool, _ *core.RNG) (core.DynState, core.DynState, bool, bool) {
			if a == 0 && b == 0 && !edge {
				return 1, 1, true, true
			}
			return a, b, edge, false
		},
	}
	out, err := Execute(context.Background(), []Point{{
		Protocol: "dyn-matching", N: 16, Trials: 6, BaseSeed: 1,
		DynProto: matching,
		DynStable: func(cfg *core.DynConfig) bool {
			for u := 0; u < cfg.N(); u++ {
				if cfg.Node(u) == 0 {
					return false
				}
			}
			return true
		},
		Metric: MetricEffectiveSteps,
	}}, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregates[0]
	if agg.Converged != 6 || agg.Mean != 8 {
		t.Fatalf("dynamic aggregate %+v (a perfect matching on 16 nodes takes exactly 8 effective steps)", agg)
	}
	for _, rec := range out.Runs {
		if rec.Engine != "dynamic" || rec.ConvergenceTime <= 0 {
			t.Fatalf("dynamic record %+v", rec)
		}
	}
}

func TestDynPointTimeoutStops(t *testing.T) {
	t.Parallel()
	busy := &core.DynProtocol{
		Name:    "dyn-busy",
		Initial: 0,
		Apply: func(a, b core.DynState, edge bool, _ *core.RNG) (core.DynState, core.DynState, bool, bool) {
			return a + 1, b + 1, edge, true
		},
	}
	out, err := Execute(context.Background(), []Point{{
		Protocol: "dyn-busy", N: 64, Trials: 2, BaseSeed: 1,
		DynProto:      busy,
		DynStable:     func(*core.DynConfig) bool { return false },
		CheckInterval: 64, // poll the deadline often enough to stop promptly
	}}, Options{Timeout: 20 * time.Millisecond, KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregates[0]
	if agg.Stopped != 2 || agg.Converged != 0 {
		t.Fatalf("dynamic timeout aggregate %+v", agg)
	}
	for _, rec := range out.Runs {
		if !rec.Stopped {
			t.Fatalf("dynamic run not stopped: %+v", rec)
		}
	}
}

func TestDynPointValidation(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	dyn := &core.DynProtocol{Name: "d", Apply: func(a, b core.DynState, e bool, _ *core.RNG) (core.DynState, core.DynState, bool, bool) {
		return a, b, e, false
	}}
	stable := func(*core.DynConfig) bool { return true }
	bad := []Point{
		{Protocol: "d", N: 8, Trials: 1, DynProto: dyn}, // no DynStable
		{Protocol: "d", N: 8, Trials: 1, DynProto: dyn, DynStable: stable, Proto: cc.Proto},
		{Protocol: "d", N: 8, Trials: 1, DynProto: dyn, DynStable: stable, Engine: core.EngineSparse},
		{Protocol: "d", N: 8, Trials: 1, DynProto: dyn, DynStable: stable,
			NewScheduler: func() core.Scheduler { return &core.RoundRobinScheduler{} }},
		{Protocol: "d", N: 8, Trials: 1, DynProto: dyn, DynStable: stable,
			Faults: &scenario.FaultPlan{Events: []scenario.Fault{{Kind: scenario.KindReset, Step: 1}}}},
	}
	for i, pt := range bad {
		if _, err := Execute(context.Background(), []Point{pt}, Options{}); err == nil {
			t.Fatalf("invalid dynamic point %d accepted: %+v", i, pt)
		}
	}
}

// TestIncludeUnconverged: budget-exhausted runs fold their metric into
// the aggregate when requested — the survivability convention.
func TestIncludeUnconverged(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	never := core.Detector{Trigger: core.TriggerInterval, Stable: func(*core.Config) bool { return false }}
	out, err := Execute(context.Background(), []Point{{
		Protocol: "cycle-cover", N: 12, Trials: 3, BaseSeed: 1,
		Proto: cc.Proto, Detector: never, MaxSteps: 5000,
		Metric: MetricSteps, IncludeUnconverged: true,
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := out.Aggregates[0]
	if agg.Converged != 0 || agg.Failures != 3 {
		t.Fatalf("aggregate %+v", agg)
	}
	if agg.Mean != 5000 {
		t.Fatalf("mean %f, want the budget cut 5000 folded in", agg.Mean)
	}
}

func TestFormatFloatNonFinite(t *testing.T) {
	t.Parallel()
	if got := formatFloat(math.NaN()); got != "" {
		t.Fatalf("NaN formatted as %q, want empty cell", got)
	}
	if got := formatFloat(math.Inf(1)); got != "" {
		t.Fatalf("+Inf formatted as %q, want empty cell", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "" {
		t.Fatalf("-Inf formatted as %q, want empty cell", got)
	}
	if got := formatFloat(1234.5); got != "1234.5" {
		t.Fatalf("finite value formatted as %q", got)
	}

	// A NaN metric (dynamic runs have no final configuration for the
	// component metrics) must flow through CSV export as empty cells,
	// not as literal NaN tokens.
	var buf bytes.Buffer
	if err := WriteAggregatesCSV(&buf, []Aggregate{{Protocol: "x", N: 2, Trials: 1, Mean: math.NaN(), Min: math.Inf(-1), Max: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("non-finite tokens leaked into CSV:\n%s", s)
	}
}

func TestParseSpec(t *testing.T) {
	t.Parallel()
	src := `{"items":[{"name":"global-star","sizes":[16,32]}],"trials":4,"seed":9,"metric":"steps"}`
	spec, err := ParseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trials != 4 || spec.Seed != 9 || len(spec.Items) != 1 || spec.Metric != "steps" {
		t.Fatalf("parsed spec %+v", spec)
	}
	if _, err := ParseSpec(strings.NewReader(`{"itemz":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestExportRoundTrip(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	out, err := Execute(context.Background(), []Point{{
		Protocol: "cycle-cover", N: 12, Trials: 4, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector,
	}}, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteAggregatesJSON(&buf, out.Aggregates); err != nil {
		t.Fatal(err)
	}
	var aggs []Aggregate
	if err := json.Unmarshal(buf.Bytes(), &aggs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aggs, out.Aggregates) {
		t.Fatalf("JSON aggregate round trip diverged:\n%+v\nvs\n%+v", aggs, out.Aggregates)
	}

	buf.Reset()
	if err := WriteRunsJSON(&buf, out.Runs); err != nil {
		t.Fatal(err)
	}
	var runs []RunRecord
	if err := json.Unmarshal(buf.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, out.Runs) {
		t.Fatal("JSON runs round trip diverged")
	}

	buf.Reset()
	if err := WriteAggregatesCSV(&buf, out.Aggregates); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "protocol,n,scheduler") {
		t.Fatalf("aggregate CSV:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteRunsCSV(&buf, out.Runs); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "point,protocol,n") {
		t.Fatalf("runs CSV:\n%s", buf.String())
	}
}
