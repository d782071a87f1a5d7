package protocols

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

func TestCCliquesParameterValidation(t *testing.T) {
	t.Parallel()
	if _, err := CCliques(1); err == nil {
		t.Fatal("c=1 accepted")
	}
	if _, err := CCliques(60); err == nil {
		t.Fatal("state-budget overflow accepted")
	}
}

func TestCCliquesStateCount(t *testing.T) {
	t.Parallel()
	for c := 2; c <= 6; c++ {
		cons, err := CCliques(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cons.Proto.Size(), 5*c-3; got != want {
			t.Fatalf("c=%d: %d states, paper says %d", c, got, want)
		}
	}
}

func TestCCliquesBuildsPartitions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		c, n int
	}{
		{2, 6}, {2, 7}, // matching pairs, odd leftover
		{3, 6}, {3, 9}, {3, 10}, {3, 11}, // every residue mod 3
		{4, 8}, {4, 9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(rune('0'+tc.c))+"-"+string(rune('0'+tc.n%10)), func(t *testing.T) {
			t.Parallel()
			cons, err := CCliques(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(cons.Proto, tc.n, core.Options{Seed: 2, Detector: cons.Detector})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("c=%d n=%d: no convergence", tc.c, tc.n)
			}
			g := ActiveGraph(res.Final)
			cliques := 0
			for _, comp := range g.Components() {
				if len(comp) == tc.c {
					sub, _ := g.InducedSubgraph(comp)
					if sub.M() != tc.c*(tc.c-1)/2 {
						t.Fatalf("component %v is not K%d", comp, tc.c)
					}
					cliques++
				}
			}
			if cliques != tc.n/tc.c {
				t.Fatalf("c=%d n=%d: %d cliques, want %d", tc.c, tc.n, cliques, tc.n/tc.c)
			}
		})
	}
}

// TestCCliquesCounterTracksDegree: a numbered follower's counter
// always equals its active degree — the invariant that makes wrong-
// connection repair sound.
func TestCCliquesCounterTracksDegree(t *testing.T) {
	t.Parallel()
	cons, err := CCliques(3)
	if err != nil {
		t.Fatal(err)
	}
	numbered := map[string]int{"1": 1, "2": 2}
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		for _, node := range []int{u, v} {
			name := cons.Proto.StateName(cfg.Node(node))
			if want, ok := numbered[name]; ok {
				if got := cfg.Degree(node); got != want {
					t.Fatalf("step %d: follower in state %s has degree %d", step, name, got)
				}
			}
		}
	})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := core.Run(cons.Proto, 9, core.Options{Seed: seed, Detector: cons.Detector, Events: obs}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCCliquesPairsIsMatching(t *testing.T) {
	t.Parallel()
	// c=2 degenerates to a perfect matching with leader visits.
	cons, err := CCliques(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cons.Proto, 10, core.Options{Seed: 7, Detector: cons.Detector})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if g := ActiveGraph(res.Final); !g.IsMaximumMatching() {
		t.Fatalf("c=2 result %v is not a maximum matching", g)
	}
}

// referenceCliquesStable is the c-Cliques stability predicate as first
// written, on the graph package: build the active graph, split it into
// components, and check each one's induced subgraph. It is the
// reference cliquesStable must agree with on every configuration.
func referenceCliquesStable(cfg *core.Config, c int) bool {
	n := cfg.N()
	for j := 1; j <= c-2; j++ {
		s, _ := cfg.Protocol().StateIndex(fmt.Sprintf("f%d", j))
		if cfg.Count(s) != 0 {
			return false
		}
	}
	g := ActiveGraph(cfg)
	cliques := 0
	leftover := -1
	for _, comp := range g.Components() {
		switch {
		case len(comp) == c:
			sub, _ := g.InducedSubgraph(comp)
			if sub.M() != c*(c-1)/2 {
				return false
			}
			cliques++
		case len(comp) == n%c && leftover < 0:
			if len(comp) > 1 {
				sub, _ := g.InducedSubgraph(comp)
				if !sub.IsSpanningStar() {
					return false
				}
			}
			leftover = len(comp)
		default:
			return false
		}
	}
	if cliques != n/c {
		return false
	}
	if n%c == 0 {
		return leftover < 0
	}
	return leftover == n%c
}

// nearPartition builds a random configuration close to a stable one: a
// random partition into ⌊n/c⌋ copies of K_c plus a star on the n mod c
// leftover nodes, then zero to three random perturbations. Some keep
// the edge count (moving one edge), some keep every degree (a double
// edge swap, which turns two cliques into a non-clique of the same
// degree sequence), some move the star's center, and some put a node
// into an absorbed-leader state f_j.
func nearPartition(rng *rand.Rand, p *core.Protocol, c, n int) *core.Config {
	cfg := core.NewConfig(p, n)
	perm := rng.Perm(n)
	q := n / c
	for k := 0; k < q; k++ {
		block := perm[k*c : (k+1)*c]
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				cfg.SetEdge(block[i], block[j], true)
			}
		}
	}
	left := perm[q*c:]
	for _, u := range left[min(1, len(left)):] {
		cfg.SetEdge(left[0], u, true)
	}
	pair := func() (int, int) {
		u := rng.IntN(n)
		v := rng.IntN(n - 1)
		if v >= u {
			v++
		}
		return u, v
	}
	for k := rng.IntN(4); k > 0 && n >= 2; k-- {
		switch rng.IntN(5) {
		case 0: // flip one pair
			u, v := pair()
			cfg.SetEdge(u, v, !cfg.Edge(u, v))
		case 1: // move one edge: remove an active pair, add an inactive one
			a, b := pair()
			x, y := pair()
			if cfg.Edge(a, b) && !cfg.Edge(x, y) {
				cfg.SetEdge(a, b, false)
				cfg.SetEdge(x, y, true)
			}
		case 2: // double edge swap: {a,b},{x,y} → {a,x},{b,y}
			a, b := pair()
			x, y := pair()
			if a != x && a != y && b != x && b != y && cfg.Edge(a, b) && cfg.Edge(x, y) && !cfg.Edge(a, x) && !cfg.Edge(b, y) {
				cfg.SetEdge(a, b, false)
				cfg.SetEdge(x, y, false)
				cfg.SetEdge(a, x, true)
				cfg.SetEdge(b, y, true)
			}
		case 3: // re-center the leftover star on another of its nodes
			if len(left) >= 3 {
				for _, u := range left[1:] {
					cfg.SetEdge(left[0], u, false)
				}
				left[0], left[1] = left[1], left[0]
				for _, u := range left[1:] {
					cfg.SetEdge(left[0], u, true)
				}
			}
		case 4: // an absorbed leader
			if c >= 3 {
				s, _ := p.StateIndex(fmt.Sprintf("f%d", 1+rng.IntN(c-2)))
				cfg.SetNode(rng.IntN(n), s)
			}
		}
	}
	return cfg
}

// TestCCliquesStableMatchesReference: the counter-gated predicate
// returns the reference predicate's verdict on ≥ 10⁵ random near-
// partitions per c, across every residue n mod c.
func TestCCliquesStableMatchesReference(t *testing.T) {
	t.Parallel()
	const perC = 100_000
	for c := 2; c <= 5; c++ {
		cons, err := CCliques(c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(c), 14))
		accepted := 0
		for i := 0; i < perC; i++ {
			n := 1 + i%14
			cfg := nearPartition(rng, cons.Proto, c, n)
			want := referenceCliquesStable(cfg, c)
			if got := cons.Detector.Stable(cfg); got != want {
				t.Fatalf("c=%d n=%d: Stable = %v, reference = %v on\n%v", c, n, got, want, cfg)
			}
			if want {
				accepted++
			}
		}
		// Both verdicts must be well represented, or the agreement
		// proves little.
		if accepted < perC/10 || accepted > perC*9/10 {
			t.Fatalf("c=%d: %d of %d samples stable; the generator lost its balance", c, accepted, perC)
		}
	}
}

// TestCCliquesStableOnTrajectories: on real runs the predicate agrees
// with the reference after every effective step, on the sparse and the
// batch engine.
func TestCCliquesStableOnTrajectories(t *testing.T) {
	t.Parallel()
	for c := 2; c <= 4; c++ {
		cons, err := CCliques(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []core.Engine{core.EngineSparse, core.EngineBatch} {
			for n := c; n <= 3*c+2; n++ {
				checks := 0
				det := core.Detector{
					Trigger: core.TriggerEffective,
					Stable: func(cfg *core.Config) bool {
						checks++
						got, want := cons.Detector.Stable(cfg), referenceCliquesStable(cfg, c)
						if got != want {
							t.Fatalf("c=%d n=%d engine=%s check %d: Stable = %v, reference = %v on\n%v", c, n, engine, checks, got, want, cfg)
						}
						return got
					},
				}
				res, err := core.Run(cons.Proto, n, core.Options{Seed: uint64(n), Engine: engine, Detector: det})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged || int64(checks) != res.EffectiveSteps+1 {
					t.Fatalf("c=%d n=%d engine=%s: converged=%v after %d checks, %d effective steps", c, n, engine, res.Converged, checks, res.EffectiveSteps)
				}
			}
		}
	}
}

// TestCCliquesStableRejectsWithoutAllocating: configurations rejected
// by the counter gates — an absorbed leader, a wrong edge count, a
// wrong degree profile — cost no allocation, since the predicate runs
// after every effective step. Up to 64 nodes the full check allocates
// nothing either: an accepted configuration, and one that passes every
// counter gate but fails the component sizes.
func TestCCliquesStableRejectsWithoutAllocating(t *testing.T) {
	cons, err := CCliques(3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 // two triangles and a leftover edge
	stable := func() *core.Config {
		cfg := core.NewConfig(cons.Proto, n)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {6, 7}} {
			cfg.SetEdge(e[0], e[1], true)
		}
		return cfg
	}
	if !cons.Detector.Stable(stable()) {
		t.Fatal("two triangles and an edge rejected")
	}
	absorbed := stable()
	f1, _ := cons.Proto.StateIndex("f1")
	absorbed.SetNode(0, f1)
	edges := stable()
	edges.SetEdge(0, 3, true)
	degrees := stable() // same edge count, node 6 at degree 2
	degrees.SetEdge(6, 7, false)
	degrees.SetEdge(5, 6, true)
	for name, cfg := range map[string]*core.Config{"absorbed": absorbed, "edges": edges, "degrees": degrees} {
		if cons.Detector.Stable(cfg) {
			t.Fatalf("%s: accepted", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { cons.Detector.Stable(cfg) }); allocs != 0 {
			t.Fatalf("%s: %v allocations per rejected call", name, allocs)
		}
	}
	// A 6-cycle plus the leftover edge: seven edges, six nodes at
	// degree 2 and two at degree 1, but components of 6 and 2 nodes.
	cycle := core.NewConfig(cons.Proto, n)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {6, 7}} {
		cycle.SetEdge(e[0], e[1], true)
	}
	if cons.Detector.Stable(cycle) {
		t.Fatal("a 6-cycle and an edge accepted")
	}
	for name, cfg := range map[string]*core.Config{"accepted": stable(), "components": cycle} {
		if allocs := testing.AllocsPerRun(100, func() { cons.Detector.Stable(cfg) }); allocs != 0 {
			t.Fatalf("%s: %v allocations per full check", name, allocs)
		}
	}
}

// TestCCliquesEdgeTriggerExact pins the c-Cliques detector's
// TriggerEdge. Statically: for c = 2…8, no outcome of any interaction
// moves a node into or out of an absorbed state (f1…f_{c−2}) without
// flipping the edge, so cliquesStable — absorbed counts plus
// edge-derived data — cannot change its verdict on a step that keeps
// every edge. On runs: checking after every effective step or only
// after edge-changing ones stops every run at the same step with the
// same record and final configuration, on the sparse and the baseline
// engine.
func TestCCliquesEdgeTriggerExact(t *testing.T) {
	t.Parallel()
	t.Run("rules", func(t *testing.T) {
		for c := 2; c <= 8; c++ {
			cons, err := CCliques(c)
			if err != nil {
				t.Fatal(err)
			}
			p := cons.Proto
			absorbed := make([]bool, p.Size())
			for j := 1; j <= c-2; j++ {
				s, ok := p.StateIndex(fmt.Sprintf("f%d", j))
				if !ok {
					t.Fatalf("c=%d: no state f%d", c, j)
				}
				absorbed[s] = true
			}
			outcomes := 0
			for a := core.State(0); int(a) < p.Size(); a++ {
				for b := core.State(0); int(b) < p.Size(); b++ {
					for _, edge := range []bool{false, true} {
						for _, o := range p.Outcomes(a, b, edge) {
							outcomes++
							if o.OutEdge == edge && (absorbed[a] != absorbed[o.OutA] || absorbed[b] != absorbed[o.OutB]) {
								t.Errorf("c=%d: (%s, %s, %v) → (%s, %s) changes an absorbed state and keeps the edge",
									c, p.StateName(a), p.StateName(b), edge, p.StateName(o.OutA), p.StateName(o.OutB))
							}
						}
					}
				}
			}
			if outcomes == 0 {
				t.Fatalf("c=%d: no outcomes enumerated", c)
			}
		}
	})
	const seeds = 100
	for _, c := range []int{3, 4} {
		cons, err := CCliques(c)
		if err != nil {
			t.Fatal(err)
		}
		if cons.Detector.Trigger != core.TriggerEdge {
			t.Fatalf("c=%d: detector trigger %d, want TriggerEdge", c, cons.Detector.Trigger)
		}
		effective := cons.Detector
		effective.Trigger = core.TriggerEffective
		for _, engine := range []core.Engine{core.EngineSparse, core.EngineBaseline} {
			t.Run(fmt.Sprintf("c=%d/engine=%s", c, engine), func(t *testing.T) {
				t.Parallel()
				for n := 8; n <= 13; n++ {
					for seed := uint64(1); seed <= seeds; seed++ {
						run := func(det core.Detector) core.Result {
							res, err := core.Run(cons.Proto, n, core.Options{Seed: seed, Engine: engine, Detector: det})
							if err != nil {
								t.Fatal(err)
							}
							return res
						}
						want, got := run(effective), run(cons.Detector)
						if !want.Converged {
							t.Fatalf("n=%d seed=%d: effective-trigger run did not converge in %d steps", n, seed, want.Steps)
						}
						if got.Converged != want.Converged || got.Steps != want.Steps ||
							got.ConvergenceTime != want.ConvergenceTime || got.EffectiveSteps != want.EffectiveSteps ||
							got.EdgeChanges != want.EdgeChanges || got.Final.Fingerprint() != want.Final.Fingerprint() {
							t.Fatalf("n=%d seed=%d: edge trigger diverged:\n got converged=%v steps=%d ct=%d eff=%d edges=%d\nwant converged=%v steps=%d ct=%d eff=%d edges=%d",
								n, seed, got.Converged, got.Steps, got.ConvergenceTime, got.EffectiveSteps, got.EdgeChanges,
								want.Converged, want.Steps, want.ConvergenceTime, want.EffectiveSteps, want.EdgeChanges)
						}
						if got.Metrics.DetectorChecks > want.Metrics.DetectorChecks {
							t.Fatalf("n=%d seed=%d: edge trigger checked %d times, effective %d", n, seed, got.Metrics.DetectorChecks, want.Metrics.DetectorChecks)
						}
					}
				}
			})
		}
	}
}
