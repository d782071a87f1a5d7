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
		if pt.Protocol == "Graph-Replication" && pt.Initial == nil {
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
	// Population sizes below 1 are a compile error on every item kind,
	// never a panic while building an initial configuration.
	for _, item := range []Item{{Name: "cycle-cover"}, {Name: "One-Way-Epidemic", Kind: "process"}, {Kind: "replication"}} {
		for _, n := range []int{0, -3} {
			item.Sizes = []int{n}
			bad = append(bad, Spec{Trials: 1, Items: []Item{item}})
		}
	}
	for i, spec := range bad {
		if _, err := spec.Compile(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestPointTrialReproducesRecords: core.Run on what Point.Trial returns
// replays every recorded trial of a point that uses every per-trial
// ingredient at once — a crash plan, a gnp topology and a stateful
// scheduler — both on the point Execute prepared and on a freshly
// compiled one.
func TestPointTrialReproducesRecords(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Trials:     6,
		Seed:       3,
		Schedulers: []string{"permutation"},
		Faults:     &scenario.FaultPlan{Events: []scenario.Fault{{Kind: scenario.KindCrash, Step: 40, Count: 2}}},
		Topology:   &core.TopologySpec{Kind: core.TopoGnp, Param: 0.5},
		MaxSteps:   1 << 20,
		Items:      []Item{{Name: "cycle-cover", Sizes: []int{16}}},
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(context.Background(), points, Options{KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range out.Runs {
		if rec.FaultCrashes != 2 || rec.Topology != "gnp@0.5" {
			t.Fatalf("record %+v misses the plan or the topology", rec)
		}
		for name, pt := range map[string]*Point{"executed": &points[0], "fresh": &fresh[0]} {
			proto, opts, err := pt.Trial(rec.Trial)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Seed != rec.Seed || opts.Scheduler == nil || opts.Topology == nil || opts.Injector == nil {
				t.Fatalf("%s point, trial %d: options %+v miss the seed, scheduler, topology or injection", name, rec.Trial, opts)
			}
			res, err := core.Run(proto, pt.N, opts)
			if err != nil {
				t.Fatal(err)
			}
			counts := opts.Injector.(*scenario.Injection).Counts()
			got := [6]int64{res.Steps, res.ConvergenceTime, res.EffectiveSteps, counts.Crashes, counts.EdgeDeletions, counts.Resets}
			want := [6]int64{rec.Steps, rec.ConvergenceTime, rec.EffectiveSteps, rec.FaultCrashes, rec.FaultEdgeDeletions, rec.FaultResets}
			if got != want {
				t.Fatalf("%s point, trial %d: Trial replay gives %v, the record says %v", name, rec.Trial, got, want)
			}
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
	// A restricted topology takes the schedulers core.Run takes.
	spec.Engine = ""
	spec.Topology = &core.TopologySpec{Kind: core.TopoGnp, Param: 0.5}
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "does not support a restricted topology") {
		t.Fatalf("weighted scheduler on a restricted topology: err = %v", err)
	}
	spec.Schedulers = []string{"uniform", "round-robin", "permutation"}
	if _, err := spec.Compile(); err != nil {
		t.Fatalf("restricted-topology schedulers refused: %v", err)
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
	}}, Options{KeepRuns: true})
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
	// The budget is the deterministic end of a run that never
	// stabilizes; Stopped is reserved for cancellation.
	if agg.Stopped != 0 || len(out.Runs) != 3 {
		t.Fatalf("budget cuts counted as stopped: %+v (%d runs)", agg, len(out.Runs))
	}
	for _, rec := range out.Runs {
		if rec.Stopped || rec.Steps != 5000 {
			t.Fatalf("budget-cut run recorded as %+v", rec)
		}
	}
}

// TestSparseTopologySweepCompletes: at n = 12, gnp@0.05 realizes a
// graph with no pair in about 3% of the trials (0.95⁶⁶). Those trials
// converge at step 0 under the quiescence detector; none of them may
// abort the sweep, on any engine.
func TestSparseTopologySweepCompletes(t *testing.T) {
	t.Parallel()
	for _, engine := range []string{"baseline", "sparse", "batch"} {
		spec := Spec{
			Trials:             200,
			Seed:               1,
			Engine:             engine,
			Detector:           "quiescence",
			MaxSteps:           663552,
			IncludeUnconverged: true,
			Topology:           &core.TopologySpec{Kind: core.TopoGnp, Param: 0.05},
			Items:              []Item{{Name: "simple-global-line", Sizes: []int{12}}},
		}
		points, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out, err := Execute(context.Background(), points, Options{})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if agg := out.Aggregates[0]; agg.Trials != 200 || agg.Min != 0 {
			t.Fatalf("%s: aggregate %+v, want 200 trials with an empty realization among them", engine, agg)
		}
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

	// A NaN metric (a component metric of a result with no final
	// configuration) must flow through CSV export as empty cells, not
	// as literal NaN tokens.
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
	if _, err := ParseSpec(strings.NewReader(src + "\n")); err != nil {
		t.Fatalf("spec followed by a newline rejected: %v", err)
	}
	if _, err := ParseSpec(strings.NewReader(src + ` {"bogus":1}`)); err == nil {
		t.Fatal("trailing object after the spec accepted")
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
