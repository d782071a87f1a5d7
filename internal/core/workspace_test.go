package core

import (
	"testing"
)

// wsResultKey flattens a Result into comparable scalars plus the final
// configuration's canonical fingerprint — "bit-identical" for the
// workspace contract's purposes.
type wsResultKey struct {
	Converged       bool
	Stopped         bool
	Steps           int64
	ConvergenceTime int64
	EffectiveSteps  int64
	EdgeChanges     int64
	Engine          Engine
	Fingerprint     string
}

func keyOf(res Result) wsResultKey {
	return wsResultKey{
		Converged:       res.Converged,
		Stopped:         res.Stopped,
		Steps:           res.Steps,
		ConvergenceTime: res.ConvergenceTime,
		EffectiveSteps:  res.EffectiveSteps,
		EdgeChanges:     res.EdgeChanges,
		Engine:          res.Engine,
		Fingerprint:     res.Final.Fingerprint(),
	}
}

// indexCases are the two enabled-pair indexes an indexed run at most
// 64 nodes can take: the bit rows Run picks there, and the census
// through a census-only workspace (the package's seam).
// freshWorkspace returns what Options.Workspace gets for a run with no
// workspace of the caller's: nil, or a new census-only one.
var indexCases = []struct {
	name   string
	census bool
}{{"bits", false}, {"census", true}}

func freshWorkspace(census bool) *Workspace {
	if !census {
		return nil
	}
	return &Workspace{censusOnly: true}
}

// dirtyWorkspace runs a throwaway workload through ws so the measured
// run that follows starts from a thoroughly used workspace — different
// protocol, different population, an indexed engine — rather than a
// pristine one. Resets must erase all of it.
func dirtyWorkspace(t *testing.T, ws *Workspace) {
	t.Helper()
	p := injProtocol()
	for _, engine := range []Engine{EngineSparse, EngineBatch, EngineBaseline} {
		_, err := Run(p, 9, Options{
			Seed:      99,
			Engine:    engine,
			Detector:  Detector{Trigger: TriggerInterval, Stable: func(*Config) bool { return false }},
			MaxSteps:  500,
			Workspace: ws,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkspaceBitIdentical pins the workspace contract: a run through
// a reused (and deliberately dirtied) workspace is bit-identical —
// full Result plus final-configuration fingerprint — to a run with no
// workspace (on a new one of its own) with the same (protocol, n,
// seed, engine), on every engine and both enabled-pair indexes, for
// default and caller-supplied initial configurations, and under an
// injected fault sequence.
func TestWorkspaceBitIdentical(t *testing.T) {
	t.Parallel()
	epi, epiDet := epidemicProtocol()
	quiesceFast := MustProtocol("q", []string{"i", "o"}, 0, []State{1}, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 0, OutB: 1},
		{A: 0, B: 1, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})

	cases := []struct {
		name     string
		proto    *Protocol
		n        int
		det      Detector
		initial  func(p *Protocol, n int) *Config
		injector func() Injector
		maxSteps int64
	}{
		{name: "default-start", proto: quiesceFast, n: 24, det: QuiescenceDetector()},
		{name: "seeded-initial", proto: epi, n: 24, det: epiDet, initial: seededInitial},
		{name: "fault-plan", proto: quiesceFast, n: 24, det: QuiescenceDetector(),
			maxSteps: 1 << 16,
			injector: func() Injector {
				return &scriptInjector{
					events: []int64{5, 60, 200},
					act: func(step int64, m *Mutator) {
						m.SetNode(int(step)%8, 0)
						m.SetEdge(1, 2, false)
					},
				}
			}},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, ix := range indexCases {
				for _, engine := range []Engine{EngineBaseline, EngineSparse, EngineBatch} {
					opts := Options{Seed: 7, Engine: engine, Detector: tc.det, MaxSteps: tc.maxSteps}
					if tc.initial != nil {
						opts.Initial = tc.initial(tc.proto, tc.n)
					}
					if tc.injector != nil {
						opts.Injector = tc.injector()
					}
					opts.Workspace = freshWorkspace(ix.census)
					fresh, err := Run(tc.proto, tc.n, opts)
					if err != nil {
						t.Fatalf("index=%s engine=%s fresh: %v", ix.name, engine, err)
					}
					want := keyOf(fresh)

					ws := NewWorkspace()
					ws.censusOnly = ix.census
					dirtyWorkspace(t, ws)
					opts.Workspace = ws
					// Two reused runs: the first resets the dirtied
					// workspace, the second resets it after a run of the same
					// case.
					for round := 1; round <= 2; round++ {
						if tc.injector != nil {
							opts.Injector = tc.injector() // injectors are stateful: fresh per run
						}
						got, err := Run(tc.proto, tc.n, opts)
						if err != nil {
							t.Fatalf("index=%s engine=%s workspace round %d: %v", ix.name, engine, round, err)
						}
						if keyOf(got) != want {
							t.Fatalf("index=%s engine=%s round %d: workspace run diverged from fresh run:\n got %+v\nwant %+v",
								ix.name, engine, round, keyOf(got), want)
						}
					}
				}
			}
		})
	}
}

// TestWorkspaceFinalSurvivesAsNextInitial pins the documented edge of
// the ownership contract: the borrowed Result.Final may be fed back as
// the next run's Initial on the same workspace (the in-place copy is a
// no-op on the aliased configuration).
func TestWorkspaceFinalSurvivesAsNextInitial(t *testing.T) {
	t.Parallel()
	p, det := epidemicProtocol()
	ws := NewWorkspace()
	res, err := Run(p, 16, Options{Seed: 3, Detector: det, Initial: seededInitial(p, 16), Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	fp := res.Final.Fingerprint()
	res2, err := Run(p, 16, Options{Seed: 4, Detector: det, Initial: res.Final, Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.Steps != 0 {
		t.Fatalf("continuation from a converged Final should be immediately stable: %+v", res2)
	}
	if res2.Final.Fingerprint() != fp {
		t.Fatal("continuation mutated the aliased initial configuration")
	}
	// The fingerprint covers nodes and edges only; the derived
	// aggregates must survive the aliased self-copy too (the in-place
	// count resize once zeroed them through the alias).
	if got := res2.Final.CountAll(nil); got[0] != 0 || got[1] != 16 {
		t.Fatalf("aliased self-copy corrupted population counts: %v", got)
	}
}

// TestWorkspaceSteadyStateAllocs pins the tentpole claim: with a
// workspace, steady-state repeated runs allocate O(1) — a few closure
// cells, never the Θ(n²) index or the configuration arrays. Bounds are
// deliberately loose (a handful, not the exact count) so unrelated
// compiler changes don't flake the suite, while still catching any
// reintroduced per-trial rebuild, which would cost hundreds of
// allocations.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	p, det := epidemicProtocol()
	initial := seededInitial(p, 96)
	for _, engine := range []Engine{EngineBaseline, EngineSparse, EngineBatch} {
		ws := NewWorkspace()
		seed := uint64(1)
		run := func() {
			opts := Options{Seed: seed, Engine: engine, Detector: det, Initial: initial, Workspace: ws}
			seed++
			if _, err := Run(p, 96, opts); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			run() // reach steady-state capacities before counting
		}
		if avg := testing.AllocsPerRun(16, run); avg > 8 {
			t.Errorf("engine=%s: %.1f allocations per steady-state workspace run, want ≤ 8", engine, avg)
		}
	}
}
