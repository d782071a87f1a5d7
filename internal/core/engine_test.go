package core

import (
	"strings"
	"testing"
)

// epidemicProtocol is a one-way epidemic with node 0 seeded by the
// test: a simple, always-converging workload.
func epidemicProtocol() (*Protocol, Detector) {
	p := MustProtocol("epi", []string{"b", "a"}, 0, nil, []Rule{
		{A: 1, B: 0, Edge: false, OutA: 1, OutB: 1},
	})
	det := Detector{
		Trigger: TriggerEffective,
		Stable:  func(cfg *Config) bool { return cfg.Count(0) == 0 },
	}
	return p, det
}

func seededInitial(p *Protocol, n int) *Config {
	cfg := NewConfig(p, n)
	cfg.SetNode(0, 1)
	return cfg
}

func TestRunConverges(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	res, err := Run(p, 20, Options{Seed: 1, Detector: det, Initial: seededInitial(p, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("epidemic did not converge")
	}
	if res.EffectiveSteps != 19 {
		t.Fatalf("effective steps %d, want 19", res.EffectiveSteps)
	}
	if res.Final.Count(0) != 0 {
		t.Fatal("final config still has uninfected nodes")
	}
	if res.EdgeChanges != 0 {
		t.Fatal("epidemic should not touch edges")
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	run := func() Result {
		res, err := Run(p, 30, Options{Seed: 99, Detector: det, Initial: seededInitial(p, 30)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.ConvergenceTime != b.ConvergenceTime || a.EffectiveSteps != b.EffectiveSteps {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(p, 30, Options{Seed: 100, Detector: det, Initial: seededInitial(p, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps == a.Steps && c.EffectiveSteps == a.EffectiveSteps && c.ConvergenceTime == a.ConvergenceTime {
		t.Log("different seeds produced identical metrics (possible but unlikely)")
	}
}

func TestRunMaxStepsAborts(t *testing.T) {
	t.Parallel()
	// A protocol that can never satisfy its detector.
	p := MustProtocol("spin", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1},
		{A: 1, B: 1, Edge: false, OutA: 0, OutB: 0},
	})
	det := Detector{Trigger: TriggerEffective, Stable: func(cfg *Config) bool { return false }}
	res, err := Run(p, 6, Options{Seed: 1, Detector: det, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("impossible detector converged")
	}
	if res.Steps != 500 {
		t.Fatalf("aborted at %d steps, want 500", res.Steps)
	}
}

func TestRunInputValidation(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	if _, err := Run(p, 0, Options{Detector: det}); err == nil {
		t.Fatal("n=0 accepted")
	}
	other := MustProtocol("other", []string{"x"}, 0, nil, nil)
	if _, err := Run(p, 4, Options{Detector: det, Initial: NewConfig(other, 4)}); err == nil {
		t.Fatal("foreign initial configuration accepted")
	} else if !strings.Contains(err.Error(), "belongs to protocol") {
		t.Fatalf("unexpected error %v", err)
	}
	if _, err := Run(p, 4, Options{Detector: det, Initial: NewConfig(p, 5)}); err == nil {
		t.Fatal("wrong-size initial configuration accepted")
	}
}

func TestRunSingleNode(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	res, err := Run(p, 1, Options{Seed: 1, Detector: det, Initial: seededInitial(p, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("single node: %+v", res)
	}
}

func TestRunAlreadyStable(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	initial := NewConfig(p, 5)
	for u := 0; u < 5; u++ {
		initial.SetNode(u, 1)
	}
	res, err := Run(p, 5, Options{Seed: 1, Detector: det, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 || res.ConvergenceTime != 0 {
		t.Fatalf("already-stable run: %+v", res)
	}
}

func TestDefaultDetectorIsQuiescence(t *testing.T) {
	t.Parallel()
	// Maximum matching quiesces; the default detector must find it.
	p := MustProtocol("mm", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	res, err := Run(p, 10, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("quiescence not detected")
	}
	if res.Final.Count(0) > 1 {
		t.Fatalf("%d unmatched nodes", res.Final.Count(0))
	}
}

// stepCounter is an EventSink that counts step events and the edge
// flips among them — the minimal step observer.
type stepCounter struct {
	steps int
	edges int
}

func (o *stepCounter) Event(ev *Event) {
	if ev.Kind != EventStep {
		return
	}
	o.steps++
	if ev.EdgeChanged {
		o.edges++
	}
}

// TestObserverReceivesEffectiveSteps pins the step-event contract from
// the observer's side: one step event per effective step, flagged
// exactly when the step changed an edge.
func TestObserverReceivesEffectiveSteps(t *testing.T) {
	t.Parallel()
	p := MustProtocol("mm", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	obs := &stepCounter{}
	res, err := Run(p, 12, Options{Seed: 2, Events: obs})
	if err != nil {
		t.Fatal(err)
	}
	if int64(obs.steps) != res.EffectiveSteps {
		t.Fatalf("observer saw %d steps, engine counted %d", obs.steps, res.EffectiveSteps)
	}
	if int64(obs.edges) != res.EdgeChanges {
		t.Fatalf("observer saw %d edge changes, engine counted %d", obs.edges, res.EdgeChanges)
	}
}

func TestConvergenceTimeTracksOutputOnly(t *testing.T) {
	t.Parallel()
	// Qout = {b}: node-state flips into/out of Qout move the
	// convergence clock, and so do edges between two b nodes — but an
	// edge whose endpoint is a non-output a must not.
	p := MustProtocol("qout", []string{"a", "b"}, 0, []State{1}, []Rule{
		// Activates an edge while both endpoints remain non-output.
		{A: 0, B: 0, Edge: false, OutA: 0, OutB: 0, OutEdge: true},
		// Converts over an active edge: output membership changes.
		{A: 0, B: 0, Edge: true, OutA: 1, OutB: 1, OutEdge: true},
	})
	det := Detector{Trigger: TriggerEffective, Stable: func(cfg *Config) bool {
		return cfg.Count(0) == 0
	}}
	res, err := Run(p, 2, Options{Seed: 1, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Step 1 activates the a–a edge (no output change); step 2
	// converts both to b (output change).
	if res.ConvergenceTime != 2 || res.Steps != 2 {
		t.Fatalf("ConvergenceTime=%d Steps=%d, want 2/2", res.ConvergenceTime, res.Steps)
	}
}

func TestStopAbortsRun(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	res, err := Run(p, 64, Options{Seed: 1, Detector: det, Stop: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || !res.Stopped {
		t.Fatalf("Converged=%v Stopped=%v, want false/true", res.Converged, res.Stopped)
	}
	// A nil Stop (the default) must leave runs untouched.
	res, err = Run(p, 8, Options{Seed: 1, Detector: det, Initial: seededInitial(p, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Fatal("nil Stop marked the run stopped")
	}
}

func TestDefaultMaxSteps(t *testing.T) {
	t.Parallel()
	if DefaultMaxSteps(2) <= 0 {
		t.Fatal("tiny n budget not positive")
	}
	if DefaultMaxSteps(100_000) != 1<<40 {
		t.Fatal("budget not capped")
	}
	small, large := DefaultMaxSteps(10), DefaultMaxSteps(100)
	if small >= large {
		t.Fatal("budget not monotone")
	}
}

func TestDefaultCheckIntervalClamped(t *testing.T) {
	t.Parallel()
	if got := DefaultCheckInterval(4); got != 1024 {
		t.Fatalf("tiny-n interval %d, want the 1024 floor", got)
	}
	if got := DefaultCheckInterval(100); got != 100*100 {
		t.Fatalf("mid-n interval %d, want n²", got)
	}
	// The ceiling is the bugfix: an uncapped n² default at large n
	// (2⁴⁰ steps at n = 2²⁰) meant the baseline engine effectively
	// never polled Options.Stop, so campaign cancellation could not
	// reach long baseline runs.
	if got := DefaultCheckInterval(1 << 20); got != 1<<22 {
		t.Fatalf("large-n interval %d, want the 1<<22 ceiling", got)
	}
}

// TestStopReachesLargeBaselineRuns exercises the DefaultCheckInterval
// ceiling end to end: a large-population baseline run with a hostile
// step budget must observe a Stop request after at most one capped
// interval, not after n² steps.
func TestStopReachesLargeBaselineRuns(t *testing.T) {
	t.Parallel()
	p, _ := epidemicProtocol()
	const n = 5000 // n² ≈ 6× the interval ceiling
	polls := 0
	res, err := Run(p, n, Options{
		Seed:     1,
		Engine:   EngineBaseline,
		Detector: Detector{Trigger: TriggerInterval, Stable: func(*Config) bool { return false }},
		MaxSteps: 1 << 62,
		Stop: func() bool {
			polls++
			return polls > 1 // survive the pre-loop poll, stop at the next
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("run not stopped: %+v", res)
	}
	if want := DefaultCheckInterval(n); res.Steps != want {
		t.Fatalf("stopped after %d steps, want one capped interval (%d)", res.Steps, want)
	}
}

func TestRunErrorsAreErrors(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	if _, err := Run(p, -3, Options{Detector: det}); err == nil {
		t.Fatal("negative n must error")
	}
}
