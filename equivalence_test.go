package netcons_test

// TestEngineEquivalence is the distributional-equivalence suite for
// the indexed engines: every registry entry (constructors, Table 1
// processes, Graph-Replication) runs under the uniform scheduler on
// ALL THREE engines (baseline, sparse, batch) across many seeds, and
// the suites must agree on
//
//   - convergence semantics: every trial converges on every engine
//     (and no trial stops), and
//   - the law of the measured metric: each indexed engine's mean must
//     sit within a 5σ combined-standard-error band of the baseline's.
//
// The engines are deterministic per seed but consume randomness
// differently, so individual runs differ; the geometric-skip argument
// (see ARCHITECTURE.md) promises equality in distribution, which is
// what this asserts. Seeds are fixed, so the test itself is fully
// deterministic — a failure means a real law change, not noise.
//
// CI greps this test's -v output for the engine=sparse and
// engine=batch subtests, so a silently skipped engine fails the
// job; keep the subtest naming scheme in sync with
// .github/workflows/ci.yml.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

// indexedEngines are the execution paths measured against the
// baseline by the equivalence suites.
var indexedEngines = []core.Engine{core.EngineSparse, core.EngineBatch}

// censusSizes adds a second population above the 64-node cut for the
// entries whose baseline runs stay cheap there: up to 64 nodes the
// bit-row index serves the indexed engines, above it the state-class
// census, so the net covers both indexes.
var censusSizes = map[string]int{
	"simple-global-line":     72,
	"fast-global-line":       72,
	"faster-global-line":     72,
	"spanning-net":           72,
	"cycle-cover":            72,
	"global-star":            72,
	"degree-doubling":        72,
	"One-Way-Epidemic":       72,
	"One-To-One-Elimination": 72,
	"Maximum-Matching":       72,
	"One-To-All-Elimination": 72,
	"Meet-Everybody":         72,
	"Node-Cover":             72,
	"Edge-Cover":             72,
}

// censusLabel names an aggregate's subject in a subtest name: the
// protocol, with its population when the census index serves it.
func censusLabel(a campaign.Aggregate) string {
	if a.N > 64 {
		return fmt.Sprintf("%s/n=%d", a.Protocol, a.N)
	}
	return a.Protocol
}

// equivalencePoints returns the grid the suite sweeps: every registry
// entry at a small-but-nontrivial population, plus censusSizes,
// compiled from a spec so each starts from its own configuration and
// measures its default metric (the detection step for the Table 1
// processes).
func equivalencePoints(t *testing.T, trials int) []campaign.Point {
	t.Helper()
	sizes := map[string]int{
		"simple-global-line":     10,
		"fast-global-line":       12,
		"faster-global-line":     12,
		"spanning-net":           16,
		"cycle-cover":            16,
		"global-star":            16,
		"global-ring":            8,
		"2rc":                    8,
		"3rc":                    9,
		"4rc":                    9,
		"3-cliques":              9,
		"4-cliques":              8,
		"degree-doubling":        12, // needs n ≥ 2³+1 for the registered d=3
		"Graph-Replication":      8,
		"One-Way-Epidemic":       32,
		"One-To-One-Elimination": 32,
		"Maximum-Matching":       32,
		"One-To-All-Elimination": 32,
		"Meet-Everybody":         32,
		"Node-Cover":             32,
		"Edge-Cover":             32,
	}
	spec := campaign.Spec{Trials: trials, Seed: 1}
	for _, name := range protocols.Names() {
		n, ok := sizes[name]
		if !ok {
			n = 8 // new registry entries get a conservative default
		}
		sizes := []int{n}
		if big, ok := censusSizes[name]; ok {
			sizes = append(sizes, big)
		}
		spec.Items = append(spec.Items, campaign.Item{Name: name, Sizes: sizes})
	}
	points, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestEngineEquivalence(t *testing.T) {
	t.Parallel()
	trials := 48
	if testing.Short() {
		trials = 16
	}

	execute := func(engine core.Engine) []campaign.Aggregate {
		t.Helper()
		points := equivalencePoints(t, trials)
		for i := range points {
			points[i].Engine = engine
		}
		out, err := campaign.Execute(context.Background(), points, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out.Aggregates
	}

	base := execute(core.EngineBaseline)
	for _, engine := range indexedEngines {
		engine := engine
		subject := execute(engine)
		if len(base) != len(subject) {
			t.Fatalf("aggregate count mismatch: %d vs %d", len(base), len(subject))
		}
		for i := range base {
			b, f := base[i], subject[i]
			name := fmt.Sprintf("%s/engine=%s/n=%d", b.Protocol, engine, b.N)
			t.Run(name, func(t *testing.T) {
				if b.Converged != b.Trials || b.Failures != 0 || b.Stopped != 0 {
					t.Fatalf("baseline convergence semantics: %+v", b)
				}
				if f.Converged != f.Trials || f.Failures != 0 || f.Stopped != 0 {
					t.Fatalf("%s convergence semantics: %+v", engine, f)
				}
				diff := math.Abs(b.Mean - f.Mean)
				bound := 5 * math.Hypot(b.StdErr, f.StdErr)
				if diff > bound {
					t.Fatalf("means diverged: baseline %.1f±%.1f vs %s %.1f±%.1f (|Δ|=%.1f > 5σ=%.1f)",
						b.Mean, b.StdErr, engine, f.Mean, f.StdErr, diff, bound)
				}
			})
		}
	}
}

// TestEngineEquivalenceFaults extends the distributional-equivalence
// net to the scenario layer: a fixed fault plan (two crashes, two edge
// deletions, one reset — all before the first possible detection poll,
// so every run absorbs the full plan) must produce identical
// convergence semantics and survivability distributions on all three
// engines. The subjects quiesce under any fault sequence (their state
// progressions are monotone up to the finitely many resets), so every
// trial must converge.
//
// CI greps this test's -v output for the faults= subtests (in addition
// to the engine= greps), so the fault half of the suite cannot
// silently stop running; keep the naming scheme in sync with
// .github/workflows/ci.yml.
func TestEngineEquivalenceFaults(t *testing.T) {
	t.Parallel()
	trials := 48
	if testing.Short() {
		trials = 16
	}
	plan := &scenario.FaultPlan{Seed: 11, Events: []scenario.Fault{
		{Kind: scenario.KindCrash, Step: 40},
		{Kind: scenario.KindEdge, Step: 90, Count: 2},
		{Kind: scenario.KindReset, Step: 140},
		{Kind: scenario.KindCrash, Step: 200},
	}}
	subjects := []struct {
		name string
		c    protocols.Constructor
		n    int
	}{
		{"cycle-cover", protocols.CycleCover(), 16},
		{"global-star", protocols.GlobalStar(), 16},
		{"spanning-net", protocols.SpanningNet(), 16},
		// Above the 64-node cut the census index serves the run.
		{"cycle-cover", protocols.CycleCover(), 72},
		{"global-star", protocols.GlobalStar(), 72},
	}

	execute := func(engine core.Engine) campaign.Outcome {
		t.Helper()
		points := make([]campaign.Point, 0, len(subjects))
		for _, sub := range subjects {
			points = append(points, campaign.Point{
				Protocol: sub.name, N: sub.n, Trials: trials, BaseSeed: 1,
				Proto: sub.c.Proto, Detector: core.QuiescenceDetector(),
				Engine: engine, Faults: plan, Metric: campaign.MetricLargestComponent,
			})
		}
		out, err := campaign.Execute(context.Background(), points, campaign.Options{KeepRuns: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	base := execute(core.EngineBaseline)
	for _, engine := range indexedEngines {
		engine := engine
		subject := execute(engine)
		for i := range base.Aggregates {
			b, f := base.Aggregates[i], subject.Aggregates[i]
			name := fmt.Sprintf("faults=%s/%s/engine=%s", plan, censusLabel(b), engine)
			t.Run(name, func(t *testing.T) {
				if b.Converged != b.Trials || b.Failures != 0 {
					t.Fatalf("baseline convergence semantics under faults: %+v", b)
				}
				if f.Converged != f.Trials || f.Failures != 0 {
					t.Fatalf("%s convergence semantics under faults: %+v", engine, f)
				}
				diff := math.Abs(b.Mean - f.Mean)
				bound := 5 * math.Hypot(b.StdErr, f.StdErr)
				if diff > bound {
					t.Fatalf("survivability means diverged: baseline %.2f±%.2f vs %s %.2f±%.2f (|Δ|=%.2f > 5σ=%.2f)",
						b.Mean, b.StdErr, engine, f.Mean, f.StdErr, diff, bound)
				}
			})
		}
		// Every run on every engine must have absorbed the full plan:
		// the crashes and the reset always find victims, and by step 90
		// an active edge always exists on these subjects.
		for _, rec := range append(append([]campaign.RunRecord{}, base.Runs...), subject.Runs...) {
			if rec.FaultCrashes != 2 || rec.FaultResets != 1 || rec.FaultEdgeDeletions < 1 {
				t.Fatalf("run absorbed a partial plan: %+v", rec)
			}
		}
	}
}

// TestEngineEquivalenceTopology extends the distributional-equivalence
// net to restricted interaction graphs: edge-building subjects run
// under a G(n,p) and a random-geometric topology spec (one realization
// per trial, derived from the trial seed, so all engines see the same
// graph sequence) and every indexed engine's metric law must match the
// baseline's. On top of the 5σ band, sparse and batch must produce
// bit-identical per-run records under a topology — the batch engine's
// exact-fallback contract asserted through the campaign pipeline.
//
// CI greps this test's -v output for the topology= subtests (in
// addition to the engine= greps), so the topology half of the suite
// cannot silently stop running; keep the naming scheme in sync with
// .github/workflows/ci.yml.
func TestEngineEquivalenceTopology(t *testing.T) {
	t.Parallel()
	trials := 48
	if testing.Short() {
		trials = 16
	}
	specs := []string{"gnp@0.4", "rgg@0.5"}
	subjects := []struct {
		name string
		c    protocols.Constructor
		n    int
	}{
		{"cycle-cover", protocols.CycleCover(), 16},
		{"spanning-net", protocols.SpanningNet(), 16},
		// Above the 64-node cut the census index serves the run.
		{"cycle-cover", protocols.CycleCover(), 72},
	}

	execute := func(engine core.Engine, spec *core.TopologySpec) campaign.Outcome {
		t.Helper()
		points := make([]campaign.Point, 0, len(subjects))
		for _, sub := range subjects {
			points = append(points, campaign.Point{
				Protocol: sub.name, N: sub.n, Trials: trials, BaseSeed: 1,
				Proto: sub.c.Proto, Detector: core.QuiescenceDetector(),
				Engine: engine, Topology: spec, Metric: campaign.MetricConvergenceTime,
			})
		}
		out, err := campaign.Execute(context.Background(), points, campaign.Options{KeepRuns: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, specText := range specs {
		spec, err := core.ParseTopologySpec(specText)
		if err != nil {
			t.Fatal(err)
		}
		base := execute(core.EngineBaseline, spec)
		byEngine := make(map[core.Engine]campaign.Outcome, len(indexedEngines))
		for _, engine := range indexedEngines {
			engine := engine
			subject := execute(engine, spec)
			byEngine[engine] = subject
			for i := range base.Aggregates {
				b, f := base.Aggregates[i], subject.Aggregates[i]
				name := fmt.Sprintf("topology=%s/%s/engine=%s", spec, censusLabel(b), engine)
				t.Run(name, func(t *testing.T) {
					if b.Topology != spec.Label() || f.Topology != spec.Label() {
						t.Fatalf("aggregate topology label: baseline %q, %s %q, want %q", b.Topology, engine, f.Topology, spec.Label())
					}
					if b.Converged != b.Trials || b.Failures != 0 || b.Stopped != 0 {
						t.Fatalf("baseline convergence semantics under topology: %+v", b)
					}
					if f.Converged != f.Trials || f.Failures != 0 || f.Stopped != 0 {
						t.Fatalf("%s convergence semantics under topology: %+v", engine, f)
					}
					diff := math.Abs(b.Mean - f.Mean)
					bound := 5 * math.Hypot(b.StdErr, f.StdErr)
					if diff > bound {
						t.Fatalf("means diverged: baseline %.1f±%.1f vs %s %.1f±%.1f (|Δ|=%.1f > 5σ=%.1f)",
							b.Mean, b.StdErr, engine, f.Mean, f.StdErr, diff, bound)
					}
				})
			}
		}
		// Sparse-vs-batch bit-identity: with a topology attached the
		// batch engine exact-steps every landing through the same
		// indexed path as sparse, so the records must agree bit for bit
		// (engine name, wall clock, and the batch-only exact-fallback
		// landing counter are the only legitimate differences).
		sparseRuns, batchRuns := byEngine[core.EngineSparse].Runs, byEngine[core.EngineBatch].Runs
		if len(sparseRuns) != len(batchRuns) {
			t.Fatalf("topology=%s: record count mismatch: %d sparse vs %d batch", spec, len(sparseRuns), len(batchRuns))
		}
		for i := range sparseRuns {
			a, b := sparseRuns[i], batchRuns[i]
			a.Engine, b.Engine = "", ""
			a.DurationNS, b.DurationNS = 0, 0
			a.ExactFallbackLandings, b.ExactFallbackLandings = 0, 0
			if a != b {
				t.Fatalf("topology=%s: sparse and batch records diverged at %d:\nsparse %+v\nbatch  %+v", spec, i, a, b)
			}
		}
	}
}

// TestWorkspaceCampaignEquivalence extends the equivalence net to the
// zero-allocation trial pipeline: the full protocol/process grid run
// through the default campaign worker pool, where every worker reuses
// one workspace across its job stream, must produce per-run records
// bit-identical — not merely equal in distribution — to core.Run on
// the same trials with no workspace, on every engine. This is the
// workspace contract (reuse changes no result bit) asserted end to end
// through a pool of at least two workers, where job-stream order — and
// therefore which trial inherits which dirty workspace state — is
// scheduling-dependent.
func TestWorkspaceCampaignEquivalence(t *testing.T) {
	t.Parallel()
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for _, engine := range []core.Engine{core.EngineBaseline, core.EngineSparse, core.EngineBatch} {
		engine := engine
		t.Run(fmt.Sprintf("engine=%s", engine), func(t *testing.T) {
			t.Parallel()
			points := equivalencePoints(t, trials)
			for i := range points {
				points[i].Engine = engine
			}
			out, err := campaign.Execute(context.Background(), points, campaign.Options{
				Workers:  max(2, runtime.GOMAXPROCS(0)),
				KeepRuns: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range out.Runs {
				pt := &points[rec.Point]
				if rec.Seed != pt.BaseSeed+uint64(rec.Trial) {
					t.Fatalf("record %d: seed %d, want %d", i, rec.Seed, pt.BaseSeed+uint64(rec.Trial))
				}
				res, value, err := runTrialDirect(pt, rec.Trial)
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if got, want := outcomeOfRecord(rec), outcomeOfRun(res, value); got != want {
					t.Fatalf("record %d (%s n=%d trial %d) diverged from core.Run with no workspace:\npooled %+v\ndirect %+v",
						i, rec.Protocol, rec.N, rec.Trial, got, want)
				}
			}
		})
	}
}

// trialOutcome is the part of a campaign record that the run itself
// determines: everything but the bookkeeping (point, trial, labels) and
// the wall clock.
type trialOutcome struct {
	Engine                string
	Converged, Stopped    bool
	Steps                 int64
	ConvergenceTime       int64
	EffectiveSteps        int64
	EdgeChanges           int64
	Value                 float64
	SkippedSteps          int64
	SkipBatches           int64
	SampleRejections      int64
	BucketDraws           int64
	ExactFallbackLandings int64
	CollapsedLandings     int64
	FastForwardEpochs     int64
	Err                   string
}

func outcomeOfRecord(rec campaign.RunRecord) trialOutcome {
	return trialOutcome{
		Engine: rec.Engine, Converged: rec.Converged, Stopped: rec.Stopped,
		Steps: rec.Steps, ConvergenceTime: rec.ConvergenceTime,
		EffectiveSteps: rec.EffectiveSteps, EdgeChanges: rec.EdgeChanges,
		Value: rec.Value, SkippedSteps: rec.SkippedSteps, SkipBatches: rec.SkipBatches,
		SampleRejections: rec.SampleRejections, BucketDraws: rec.BucketDraws,
		ExactFallbackLandings: rec.ExactFallbackLandings,
		CollapsedLandings:     rec.CollapsedLandings, FastForwardEpochs: rec.FastForwardEpochs,
		Err: rec.Err,
	}
}

func outcomeOfRun(res core.Result, value float64) trialOutcome {
	m := res.Metrics
	return trialOutcome{
		Engine: res.Engine.String(), Converged: res.Converged, Stopped: res.Stopped,
		Steps: res.Steps, ConvergenceTime: res.ConvergenceTime,
		EffectiveSteps: res.EffectiveSteps, EdgeChanges: res.EdgeChanges,
		Value: value, SkippedSteps: m.SkippedSteps, SkipBatches: m.SkipBatches,
		SampleRejections: m.SampleRejections, BucketDraws: m.BucketDraws,
		ExactFallbackLandings: m.ExactFallbackLandings,
		CollapsedLandings:     m.CollapsedLandings, FastForwardEpochs: m.FastForwardEpochs,
	}
}

// runTrialDirect runs trial t of pt through core.Run with no workspace
// and returns the result with the point's metric value.
func runTrialDirect(pt *campaign.Point, t int) (core.Result, float64, error) {
	proto, opts, err := pt.Trial(t)
	if err != nil {
		return core.Result{}, 0, err
	}
	res, err := core.Run(proto, pt.N, opts)
	if err != nil {
		return core.Result{}, 0, err
	}
	metric := pt.Metric
	if metric == nil {
		metric = campaign.MetricConvergenceTime
	}
	return res, metric(res, pt.N), nil
}

// TestEngineEquivalenceSecondaryMetrics repeats the comparison for the
// remaining step-count metrics on two contrasting workloads: an
// edge-heavy quiescent constructor and a node-state-heavy line
// builder. ConvergenceTime is covered by the main suite.
func TestEngineEquivalenceSecondaryMetrics(t *testing.T) {
	t.Parallel()
	trials := 48
	if testing.Short() {
		trials = 16
	}
	metrics := map[string]campaign.Metric{
		"steps":           campaign.MetricSteps,
		"effective-steps": campaign.MetricEffectiveSteps,
		"edge-changes":    campaign.MetricEdgeChanges,
	}
	subjects := []struct {
		name string
		c    protocols.Constructor
		n    int
	}{
		{"cycle-cover", protocols.CycleCover(), 16},
		{"simple-global-line", protocols.SimpleGlobalLine(), 10},
	}
	for metricName, metric := range metrics {
		for _, sub := range subjects {
			for _, engine := range indexedEngines {
				metricName, metric, sub, engine := metricName, metric, sub, engine
				t.Run(fmt.Sprintf("%s/engine=%s/%s", sub.name, engine, metricName), func(t *testing.T) {
					t.Parallel()
					aggregate := func(engine core.Engine) campaign.Aggregate {
						t.Helper()
						out, err := campaign.Execute(context.Background(), []campaign.Point{{
							Protocol: sub.name, N: sub.n, Trials: trials, BaseSeed: 1,
							Proto: sub.c.Proto, Detector: sub.c.Detector,
							Engine: engine, Metric: metric,
						}}, campaign.Options{})
						if err != nil {
							t.Fatal(err)
						}
						return out.Aggregates[0]
					}
					b, f := aggregate(core.EngineBaseline), aggregate(engine)
					if b.Converged != trials || f.Converged != trials {
						t.Fatalf("convergence mismatch: baseline %d, %s %d of %d", b.Converged, engine, f.Converged, trials)
					}
					diff := math.Abs(b.Mean - f.Mean)
					bound := 5 * math.Hypot(b.StdErr, f.StdErr)
					if diff > bound {
						t.Fatalf("%s means diverged: baseline %.1f±%.1f vs %s %.1f±%.1f",
							metricName, b.Mean, b.StdErr, engine, f.Mean, f.StdErr)
					}
				})
			}
		}
	}
}
