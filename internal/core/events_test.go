package core_test

// External-package tests for the structured event stream: they exercise
// core together with internal/protocols and internal/scenario (which
// import core, so these checks cannot live in package core itself).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

// collectSink retains a copy of every event (with the live Cfg pointer
// stripped, per the sink contract).
type collectSink struct {
	events []core.Event
}

func (c *collectSink) Event(ev *core.Event) {
	e := *ev
	e.Cfg = nil
	c.events = append(c.events, e)
}

func (c *collectSink) ofKind(k core.EventKind) []core.Event {
	var out []core.Event
	for _, e := range c.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

var engines = []core.Engine{core.EngineBaseline, core.EngineSparse, core.EngineBatch}

// TestEventSinkDoesNotPerturbRuns is the zero-cost-when-on law: a run
// with a sink attached is bit-identical to the same run without one, on
// every engine and on both enabled-pair indexes — the bit rows at
// n = 20, the census at n = 80 — since emission draws no randomness
// and mutates nothing.
func TestEventSinkDoesNotPerturbRuns(t *testing.T) {
	t.Parallel()
	for _, c := range []protocols.Constructor{protocols.GlobalStar(), protocols.SimpleGlobalLine()} {
		for _, n := range []int{20, 80} {
			for _, eng := range engines {
				if eng == core.EngineBatch && c.Proto.Batchable() && n > 64 {
					// The batch engine's pure path only runs sink-free: a
					// sink reroutes the whole run to exact stepping, so bare
					// and observed are different (equal-law) runs, not the
					// same bits. That contract is pinned by
					// TestBatchExactFallbackBitIdentical instead. Up to 64
					// nodes batch steps exactly either way.
					continue
				}
				bare, err := core.Run(c.Proto, n, core.Options{Seed: 11, Engine: eng, Detector: c.Detector})
				if err != nil {
					t.Fatal(err)
				}
				sink := &collectSink{}
				observed, err := core.Run(c.Proto, n, core.Options{Seed: 11, Engine: eng, Detector: c.Detector, Events: sink})
				if err != nil {
					t.Fatal(err)
				}
				if len(sink.events) == 0 {
					t.Fatalf("%s/%s/n=%d: sink saw no events", c.Proto.Name(), eng, n)
				}
				if bare.Steps != observed.Steps || bare.EffectiveSteps != observed.EffectiveSteps ||
					bare.EdgeChanges != observed.EdgeChanges || bare.ConvergenceTime != observed.ConvergenceTime ||
					bare.Converged != observed.Converged || bare.Engine != observed.Engine {
					t.Fatalf("%s/%s/n=%d: results diverge with a sink attached:\nbare     %+v\nobserved %+v",
						c.Proto.Name(), eng, n, bare, observed)
				}
				if bare.Final.Fingerprint() != observed.Final.Fingerprint() {
					t.Fatalf("%s/%s/n=%d: final configurations diverge with a sink attached", c.Proto.Name(), eng, n)
				}
				bm, om := bare.Metrics, observed.Metrics
				bm.WallNS, om.WallNS = 0, 0
				if bm != om {
					t.Fatalf("%s/%s/n=%d: metrics diverge with a sink attached:\nbare     %+v\nobserved %+v",
						c.Proto.Name(), eng, n, bm, om)
				}
			}
		}
	}
}

// TestEventStreamAccounting checks the stream's structural laws on
// every engine: a single start/end envelope, step events equal to
// effective steps, skip batches summing to Metrics.SkippedSteps, and
// Steps = Landings + SkippedSteps + CollapsedLandings (the collapse
// term is zero whenever events are attached — sinks force the exact
// path — but the assertion states the engine-wide law; the pure batch
// path is pinned by TestBatchCollapseWalkLaw). On the indexed engines the skip
// batches plus the step events must tile 1..Steps exactly — expanding
// the batches reconstructs every draw position.
func TestEventStreamAccounting(t *testing.T) {
	t.Parallel()
	c := protocols.SimpleGlobalLine()
	for _, eng := range engines {
		sink := &collectSink{}
		res, err := core.Run(c.Proto, 24, core.Options{Seed: 5, Engine: eng, Detector: c.Detector, Events: sink})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s: run did not converge", eng)
		}
		if sink.events[0].Kind != core.EventRunStart {
			t.Fatalf("%s: first event %v, want start", eng, sink.events[0].Kind)
		}
		if last := sink.events[len(sink.events)-1]; last.Kind != core.EventRunEnd {
			t.Fatalf("%s: last event %v, want end", eng, last.Kind)
		} else if last.Step != res.Steps || last.Converged != res.Converged ||
			last.EffectiveSteps != res.EffectiveSteps || last.ConvergenceTime != res.ConvergenceTime {
			t.Fatalf("%s: end envelope %+v does not match result %+v", eng, last, res)
		}
		steps := sink.ofKind(core.EventStep)
		if int64(len(steps)) != res.EffectiveSteps {
			t.Fatalf("%s: %d step events, want EffectiveSteps=%d", eng, len(steps), res.EffectiveSteps)
		}
		m := res.Metrics
		if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
			t.Fatalf("%s: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
				eng, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
		}
		var skipped int64
		for _, e := range sink.ofKind(core.EventSkip) {
			skipped += e.Skipped
		}
		if skipped != m.SkippedSteps {
			t.Fatalf("%s: skip events cover %d draws, metrics say %d", eng, skipped, m.SkippedSteps)
		}
		if int64(len(sink.ofKind(core.EventDetect))) != m.DetectorChecks {
			t.Fatalf("%s: %d detect events, metrics say %d checks", eng, len(sink.ofKind(core.EventDetect)), m.DetectorChecks)
		}
		switch eng {
		case core.EngineBaseline:
			if m.SkippedSteps != 0 || m.Landings != res.Steps {
				t.Fatalf("baseline must simulate every draw: %+v", m)
			}
		default:
			// Tile 1..Steps from skip batches and landings; every draw
			// position must be covered exactly once.
			covered := make([]bool, res.Steps+1)
			mark := func(pos int64) {
				if pos < 1 || pos > res.Steps {
					t.Fatalf("%s: event position %d outside 1..%d", eng, pos, res.Steps)
				}
				if covered[pos] {
					t.Fatalf("%s: draw position %d covered twice", eng, pos)
				}
				covered[pos] = true
			}
			for _, e := range sink.ofKind(core.EventSkip) {
				for p := e.Step; p < e.Step+e.Skipped; p++ {
					mark(p)
				}
			}
			for _, e := range steps {
				mark(e.Step)
			}
			for p := int64(1); p <= res.Steps; p++ {
				if !covered[p] {
					t.Fatalf("%s: draw position %d covered by neither a skip batch nor a step event", eng, p)
				}
			}
		}
	}
}

// TestFaultEventsMatchMetrics runs a scenario fault plan with a sink
// attached and checks the fault events agree with the fault counters:
// one EventFaultFired per firing, one EventFaultNode/EventFaultEdge per
// out-of-band write.
func TestFaultEventsMatchMetrics(t *testing.T) {
	t.Parallel()
	c := protocols.SimpleGlobalLine()
	plan, err := scenario.ParsePlan("crash@500,reset@900")
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := plan.Prepare(c.Proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		sink := &collectSink{}
		// Both faults fire by step 900; convergence is irrelevant here,
		// so a small budget keeps the baseline engine fast.
		res, err := core.Run(prepared.Proto, 24, core.Options{
			Seed:     3,
			Engine:   eng,
			Detector: core.QuiescenceDetector(),
			Injector: prepared.NewInjection(3),
			Events:   sink,
			MaxSteps: 50_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.FaultFirings == 0 {
			t.Fatalf("%s: no fault firings recorded", eng)
		}
		fired := sink.ofKind(core.EventFaultFired)
		if int64(len(fired)) != m.FaultFirings {
			t.Fatalf("%s: %d fault events, metrics say %d firings", eng, len(fired), m.FaultFirings)
		}
		for _, e := range fired {
			if e.Label != string(scenario.KindCrash) && e.Label != string(scenario.KindReset) {
				t.Fatalf("%s: unexpected fault label %q", eng, e.Label)
			}
		}
		if got := int64(len(sink.ofKind(core.EventFaultNode))); got != m.FaultNodeWrites {
			t.Fatalf("%s: %d fault_node events, metrics say %d writes", eng, got, m.FaultNodeWrites)
		}
		if got := int64(len(sink.ofKind(core.EventFaultEdge))); got != m.FaultEdgeWrites {
			t.Fatalf("%s: %d fault_edge events, metrics say %d writes", eng, got, m.FaultEdgeWrites)
		}
	}
}
