package core

import (
	"math"
	"testing"
)

func TestEngineSelection(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	run := func(opts Options) Result {
		t.Helper()
		opts.Detector = det
		if opts.Initial == nil {
			opts.Initial = seededInitial(p, 16)
		}
		res, err := Run(p, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := run(Options{Seed: 1}).Engine; got != EngineBatch {
		t.Fatalf("auto under uniform scheduler ran %v, want batch", got)
	}
	if got := run(Options{Seed: 1, Scheduler: &RoundRobinScheduler{}}).Engine; got != EngineBaseline {
		t.Fatalf("auto under round-robin ran %v, want baseline", got)
	}
	if got := run(Options{Seed: 1, Engine: EngineBaseline}).Engine; got != EngineBaseline {
		t.Fatalf("forced baseline ran %v", got)
	}
	if got := run(Options{Seed: 1, Engine: EngineSparse}).Engine; got != EngineSparse {
		t.Fatalf("forced sparse ran %v", got)
	}
}

func TestParseEngine(t *testing.T) {
	t.Parallel()
	for s, want := range map[string]Engine{"": EngineAuto, "auto": EngineAuto, "baseline": EngineBaseline, "batch": EngineBatch} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String round-trip %q → %q", s, got)
		}
	}
	// The retired dense-index engine's name stays a parse alias.
	if got, err := ParseEngine("fast"); err != nil || got != EngineSparse {
		t.Fatalf("ParseEngine(fast) = %v, %v, want the sparse alias", got, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestIndexedInvariantMetrics checks metrics that are invariant across
// engines (not merely equal in distribution): the epidemic needs
// exactly n−1 effective steps and no edge changes on any path, on both
// enabled-pair indexes.
func TestIndexedInvariantMetrics(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	for _, ix := range indexCases {
		for _, eng := range []Engine{EngineBaseline, EngineSparse} {
			res, err := Run(p, 20, Options{Seed: 5, Engine: eng, Detector: det, Initial: seededInitial(p, 20), Workspace: freshWorkspace(ix.census)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.EffectiveSteps != 19 || res.EdgeChanges != 0 {
				t.Fatalf("index=%s %v engine: %+v", ix.name, eng, res)
			}
			if res.ConvergenceTime != 0 {
				t.Fatalf("index=%s %v engine: epidemic with all-output states never changes the output graph, ConvergenceTime=%d", ix.name, eng, res.ConvergenceTime)
			}
		}
	}
}

// TestIndexedIntervalDetectionRounding verifies the computed interval
// detection: maximal matching quiesces long before the huge check
// interval, and the indexed path must report detection at the first check
// point — exactly where the baseline's periodic scan would fire — on
// both enabled-pair indexes.
func TestIndexedIntervalDetectionRounding(t *testing.T) {
	t.Parallel()
	p := MustProtocol("mm", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	const interval = 50_000
	for _, ix := range indexCases {
		res, err := Run(p, 10, Options{Seed: 3, Engine: EngineSparse, CheckInterval: interval, Workspace: freshWorkspace(ix.census)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("index=%s: matching did not converge", ix.name)
		}
		if res.Steps != interval {
			t.Fatalf("index=%s: Steps = %d, want detection at the first check point %d", ix.name, res.Steps, interval)
		}
		if res.ConvergenceTime >= interval {
			t.Fatalf("index=%s: quiescence this late (%d) makes the test vacuous", ix.name, res.ConvergenceTime)
		}
		if !res.Final.Quiescent() {
			t.Fatalf("index=%s: final configuration not quiescent", ix.name)
		}
	}
}

// TestIndexedQuiescentTailExhaustsBudget: once no pair is enabled and
// the detector can never fire (effective-triggered, predicate false),
// the indexed path must report budget exhaustion like the baseline does —
// without spinning through the remaining steps.
func TestIndexedQuiescentTailExhaustsBudget(t *testing.T) {
	t.Parallel()
	p := MustProtocol("mm", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	det := Detector{Trigger: TriggerEffective, Stable: func(*Config) bool { return false }}
	const budget = 1 << 40 // would take hours to simulate step by step
	for _, ix := range indexCases {
		res, err := Run(p, 10, Options{Seed: 3, Engine: EngineSparse, Detector: det, MaxSteps: budget, Workspace: freshWorkspace(ix.census)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged || res.Steps != budget {
			t.Fatalf("index=%s: want budget exhaustion at %d, got %+v", ix.name, budget, res)
		}
	}
}

func TestIndexedMaxStepsAborts(t *testing.T) {
	t.Parallel()
	// The spin protocol never quiesces and never satisfies the detector.
	p := MustProtocol("spin", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1},
		{A: 1, B: 1, Edge: false, OutA: 0, OutB: 0},
	})
	det := Detector{Trigger: TriggerEffective, Stable: func(*Config) bool { return false }}
	res, err := Run(p, 6, Options{Seed: 1, Engine: EngineSparse, Detector: det, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Steps != 500 {
		t.Fatalf("want abort at 500 steps, got %+v", res)
	}
}

func TestIndexedStopAborts(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	res, err := Run(p, 32, Options{Seed: 1, Engine: EngineSparse, Detector: det,
		Initial: seededInitial(p, 32), Stop: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || !res.Stopped {
		t.Fatalf("Converged=%v Stopped=%v, want false/true", res.Converged, res.Stopped)
	}
}

// TestIndexedObserverParity is TestObserverReceivesEffectiveSteps on
// the sparse engine, whose geometric skips must not drop or invent step
// events.
func TestIndexedObserverParity(t *testing.T) {
	t.Parallel()
	p := MustProtocol("mm", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	obs := &stepCounter{}
	res, err := Run(p, 12, Options{Seed: 2, Engine: EngineSparse, Events: obs})
	if err != nil {
		t.Fatal(err)
	}
	if int64(obs.steps) != res.EffectiveSteps || int64(obs.edges) != res.EdgeChanges {
		t.Fatalf("observer saw %d/%d, engine counted %d/%d",
			obs.steps, obs.edges, res.EffectiveSteps, res.EdgeChanges)
	}
}

// TestIndexedEdgeQuiescenceGate runs a protocol that keeps node states
// churning after the edges settle, under the edge-quiescence detector:
// the O(1) gate must fire even though full quiescence never holds.
func TestIndexedEdgeQuiescenceGate(t *testing.T) {
	t.Parallel()
	// a-nodes pair up over fresh edges (the only edge-effective rule,
	// and a is never recreated, so edge quiescence is absorbing); the
	// paired b/c partners keep swapping states forever.
	p := MustProtocol("churn", []string{"a", "b", "c"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 2, OutEdge: true},
		{A: 1, B: 2, Edge: true, OutA: 2, OutB: 1, OutEdge: true},
	})
	for _, ix := range indexCases {
		res, err := Run(p, 8, Options{Seed: 9, Engine: EngineSparse, Detector: EdgeQuiescenceDetector(), MaxSteps: 1 << 22, Workspace: freshWorkspace(ix.census)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("index=%s: edge quiescence not detected: %+v", ix.name, res)
		}
		if !res.Final.EdgeQuiescent() {
			t.Fatalf("index=%s: final configuration not edge-quiescent", ix.name)
		}
	}
}

// TestIndexedStepsLawMatchesBaseline compares the distribution of the
// detection step across many seeds on a workload with a non-trivial
// ineffective fraction: the two engines must agree in the mean within
// standard-error bounds (they are deterministic per seed but follow
// different sample paths, so only the law is comparable). The sparse
// engine runs on both enabled-pair indexes.
func TestIndexedStepsLawMatchesBaseline(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	const n, trials = 16, 300
	moments := func(eng Engine, census bool) (mean, se float64) {
		var sum, sumSq float64
		ws := freshWorkspace(census)
		for seed := uint64(1); seed <= trials; seed++ {
			res, err := Run(p, n, Options{Seed: seed, Engine: eng, Detector: det, Initial: seededInitial(p, n), Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%v engine seed %d did not converge", eng, seed)
			}
			v := float64(res.Steps)
			sum += v
			sumSq += v * v
		}
		mean = sum / trials
		variance := (sumSq - sum*sum/trials) / (trials - 1)
		return mean, math.Sqrt(variance / trials)
	}
	mb, sb := moments(EngineBaseline, false)
	for _, ix := range indexCases {
		ms, ss := moments(EngineSparse, ix.census)
		if diff, bound := math.Abs(mb-ms), 5*math.Hypot(sb, ss); diff > bound {
			t.Fatalf("mean detection step diverged: baseline %.1f±%.1f vs sparse on %s %.1f±%.1f (|Δ|=%.1f > %.1f)",
				mb, sb, ix.name, ms, ss, diff, bound)
		}
	}
}

func TestGeometric(t *testing.T) {
	t.Parallel()
	rng := NewRNG(1)
	if got := rng.Geometric(1); got != 0 {
		t.Fatalf("Geometric(1) = %d", got)
	}
	if got := rng.Geometric(0); got < 1<<40 {
		t.Fatalf("Geometric(0) = %d, want a huge clamp", got)
	}
	// Mean of Geometric(p) is (1−p)/p; check within 3%.
	const p, draws = 0.2, 200_000
	var sum float64
	for i := 0; i < draws; i++ {
		k := rng.Geometric(p)
		if k < 0 {
			t.Fatalf("negative draw %d", k)
		}
		sum += float64(k)
	}
	mean, want := sum/draws, (1-p)/p
	if math.Abs(mean-want) > 0.03*want {
		t.Fatalf("Geometric(%.1f) mean %.3f, want ≈ %.3f", p, mean, want)
	}
}
