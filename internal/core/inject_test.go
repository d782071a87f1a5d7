package core

import (
	"testing"
)

// injProtocol is a 3-state protocol with a mix of node-, edge- and
// both-changing rules, so out-of-band mutations exercise every index
// bookkeeping path.
func injProtocol() *Protocol {
	return MustProtocol("inj", []string{"a", "b", "c"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
		{A: 1, B: 0, Edge: false, OutA: 2, OutB: 1, OutEdge: true},
		{A: 1, B: 1, Edge: true, OutA: 1, OutB: 2, OutEdge: false},
		{A: 2, B: 2, Edge: false, OutA: 2, OutB: 2, OutEdge: true},
	})
}

// TestMutatorKeepsIndicesConsistent fuzzes out-of-band node and edge
// writes through a Mutator against the state-class census and checks
// the census against brute force after every mutation: the invariant
// fault injection relies on.
func TestMutatorKeepsIndicesConsistent(t *testing.T) {
	t.Parallel()
	const n = 14
	p := injProtocol()
	cfg := NewConfig(p, n)
	bi := newBatchIndex(cfg)
	mut := &Mutator{cfg: cfg, ix: bi}
	rng := NewRNG(42)
	for op := 0; op < 400; op++ {
		if rng.Coin() {
			mut.SetNode(rng.IntN(n), State(rng.IntN(p.Size())))
		} else {
			u, v := rng.Pair(n)
			mut.SetEdge(u, v, rng.Coin())
		}
		verifyBatchIndex(t, bi, cfg)
	}
}

// scriptInjector is a minimal Injector for engine-order tests: it
// fires at a fixed list of steps, records the steps it actually fired
// at, and applies an optional mutation.
type scriptInjector struct {
	events []int64
	fired  []int64
	act    func(step int64, m *Mutator)
}

func (s *scriptInjector) NextEvent(after int64) int64 {
	for _, e := range s.events {
		if e > after {
			return e
		}
	}
	return 0
}

func (s *scriptInjector) Inject(step int64, m *Mutator) {
	s.fired = append(s.fired, step)
	if s.act != nil {
		s.act(step, m)
	}
}

// injectorRoutes are the paths an injector test runs on: the baseline,
// and the sparse engine on each enabled-pair index.
var injectorRoutes = []struct {
	engine Engine
	census bool
}{{EngineBaseline, false}, {EngineSparse, false}, {EngineSparse, true}}

// TestInjectorFiresAtSameStepsOnEveryEngine pins the step-positional
// contract: a fixed event schedule fires at identical steps on the
// baseline and sparse paths (on both enabled-pair indexes), and events
// at or beyond MaxSteps never fire.
func TestInjectorFiresAtSameStepsOnEveryEngine(t *testing.T) {
	t.Parallel()
	// Every pair is always enabled, so the indexed engines land on
	// every step — and the run can never converge.
	p := MustProtocol("ping", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1},
		{A: 1, B: 1, Edge: false, OutA: 0, OutB: 0},
		{A: 0, B: 1, Edge: false, OutA: 1, OutB: 0},
	})
	never := Detector{Trigger: TriggerInterval, Stable: func(*Config) bool { return false }}
	const maxSteps = 500
	for _, route := range injectorRoutes {
		engine := route.engine
		inj := &scriptInjector{
			events: []int64{10, 100, 499, 500, 600},
			act: func(step int64, m *Mutator) {
				m.SetNode(0, 0)
				m.SetEdge(0, 1, false)
			},
		}
		res, err := Run(p, 16, Options{
			Seed:      7,
			Engine:    engine,
			Detector:  never,
			MaxSteps:  maxSteps,
			Injector:  inj,
			Workspace: freshWorkspace(route.census),
		})
		if err != nil {
			t.Fatalf("engine=%s: %v", engine, err)
		}
		if res.Converged || res.Steps != maxSteps {
			t.Fatalf("engine=%s: unexpected result %+v", engine, res)
		}
		want := []int64{10, 100, 499}
		if len(inj.fired) != len(want) {
			t.Fatalf("engine=%s: fired at %v, want %v", engine, inj.fired, want)
		}
		for i := range want {
			if inj.fired[i] != want[i] {
				t.Fatalf("engine=%s: fired at %v, want %v", engine, inj.fired, want)
			}
		}
	}
}

// TestInjectorMutationsVisibleToRun checks an injected mutation
// actually lands in the final configuration on every engine: the
// injector freezes node 0 into a state no rule can leave from a
// configuration that is otherwise quiescent.
func TestInjectorMutationsVisibleToRun(t *testing.T) {
	t.Parallel()
	// One-shot protocol: a+a activate and move to b; b is silent.
	p := MustProtocol("oneshot", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	for _, route := range injectorRoutes {
		engine := route.engine
		resurrected := false
		inj := &scriptInjector{events: []int64{25}}
		inj.act = func(_ int64, m *Mutator) {
			// Resurrect node 0 into 'a' if it already converted; the 'a'
			// population count stays even without the write and turns odd
			// with it, so the final count proves whether the engine both
			// applied the mutation and kept simulating correctly.
			if m.Config().Node(0) == 1 {
				m.SetNode(0, 0)
				resurrected = true
			}
		}
		res, err := Run(p, 8, Options{Seed: 3, Engine: engine, MaxSteps: 1 << 16, Injector: inj, Workspace: freshWorkspace(route.census)})
		if err != nil {
			t.Fatalf("engine=%s: %v", engine, err)
		}
		if !res.Converged {
			t.Fatalf("engine=%s: did not converge: %+v", engine, res)
		}
		if len(inj.fired) != 1 {
			t.Fatalf("engine=%s: injector fired %v", engine, inj.fired)
		}
		want := 0
		if resurrected {
			want = 1
		}
		if got := res.Final.Count(0); got != want {
			t.Fatalf("engine=%s: %d 'a' nodes in final config, want %d (resurrected=%v)",
				engine, got, want, resurrected)
		}
	}
}
