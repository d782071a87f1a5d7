package core

import (
	"testing"

	"repro/internal/graph"
)

// Brute-force checks of the state-class census (batchIndex) as the
// sparse engine and batch's exact route drive it: built from arbitrary
// configurations, updated along random trajectories on both edge
// stores, restricted to a topology, and sampled — including the
// exact-walk fallback of a saturated class. The TestClassIndex* names
// refer to that state-class census.

// indexProtocols is a battery of small protocols exercising every
// transition flavor the index must track: node-only changes, edge
// activation/deactivation, probabilistic (PREL) branches, and
// symmetry-breaking coins.
func indexProtocols(t *testing.T) map[string]*Protocol {
	t.Helper()
	return map[string]*Protocol{
		"epidemic": MustProtocol("epi", []string{"b", "a"}, 1, nil, []Rule{
			{A: 1, B: 0, Edge: false, OutA: 1, OutB: 1},
		}),
		"matching": MustProtocol("match", []string{"q0", "m"}, 0, nil, []Rule{
			{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
		}),
		"toggle": MustProtocol("toggle", []string{"a", "b"}, 0, nil, []Rule{
			{A: 0, B: 0, Edge: false, OutA: 0, OutB: 1, OutEdge: true},
			{A: 0, B: 1, Edge: true, OutA: 1, OutB: 1, OutEdge: false},
			{A: 1, B: 1, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
		}),
		"prel": MustProtocol("prel", []string{"a", "b", "c"}, 0, nil, []Rule{
			{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true,
				Alt: true, AltA: 2, AltB: 0, AltEdge: false},
			{A: 1, B: 2, Edge: false, OutA: 2, OutB: 2},
		}),
	}
}

// TestClassIndexTracksApply drives each protocol with random
// interactions through Config.Apply + Update and verifies the index
// against brute force after every effective step — on both
// edge-storage strategies (the dense store's incident-edge walks copy
// neighbors out, the sparse store's iterate rows in place).
func TestClassIndexTracksApply(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		p := p
		for _, sparse := range []bool{false, true} {
			sparse := sparse
			label := name + "/dense-store"
			if sparse {
				label = name + "/sparse-store"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				const n = 12
				rng := NewRNG(7)
				cfg := NewConfig(p, n)
				if sparse {
					cfg.store = &sparseStore{n: n, adj: make([][]int32, n)}
				}
				bi := newBatchIndex(cfg)
				verifyBatchIndex(t, bi, cfg)
				for step := 0; step < 2000; step++ {
					u, v := rng.Pair(n)
					beforeU, beforeV := cfg.Node(u), cfg.Node(v)
					effective, edgeChanged := cfg.Apply(u, v, rng)
					if effective {
						bi.Update(u, v, beforeU, beforeV, edgeChanged)
						verifyBatchIndex(t, bi, cfg)
					}
				}
			})
		}
	}
}

// TestClassIndexBuildFromArbitraryConfig pins the construction path
// against brute force across randomized configurations (states and
// edges set directly).
func TestClassIndexBuildFromArbitraryConfig(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := NewRNG(11)
			for trial := 0; trial < 20; trial++ {
				n := 2 + rng.IntN(14)
				cfg := NewConfig(p, n)
				for u := 0; u < n; u++ {
					cfg.SetNode(u, State(rng.IntN(p.Size())))
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						cfg.SetEdge(u, v, rng.Coin())
					}
				}
				verifyBatchIndex(t, newBatchIndex(cfg), cfg)
			}
		})
	}
}

// TestClassIndexSample checks that Sample only returns enabled pairs
// and visits the whole enabled set in both orientations, including
// through the rejection path (active edges mixed into enabled classes).
func TestClassIndexSample(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["matching"]
	const n = 8
	cfg := NewConfig(p, n)
	bi := newBatchIndex(cfg)
	if bi.enabled != int64(pairCount(n)) {
		t.Fatalf("all-q0 matching should enable every pair, got %d", bi.enabled)
	}
	rng := NewRNG(3)
	seen := make(map[[2]int]bool)
	for i := 0; i < 4000; i++ {
		u, v := bi.Sample(rng)
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("bad pair (%d,%d)", u, v)
		}
		if !p.EffectiveOn(cfg.Node(u), cfg.Node(v), cfg.Edge(u, v)) {
			t.Fatalf("sampled disabled pair (%d,%d)", u, v)
		}
		seen[[2]int{u, v}] = true
	}
	// Every ordered orientation of every pair should appear.
	if want := 2 * pairCount(n); len(seen) != want {
		t.Fatalf("sampled %d ordered pairs, want %d", len(seen), want)
	}
}

// TestClassIndexSampleSaturatedClass exercises the exact-walk fallback
// of sampleNonEdge: in a class where almost every pair already holds an
// active edge, rejection nearly always fails, yet the draw must remain
// uniform over the surviving non-edges — on the complete graph and
// under a topology (whose fallback walks the class's permitted-pair
// list instead of the state lists).
func TestClassIndexSampleSaturatedClass(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["matching"] // q0-q0 non-edge pairs are enabled
	const n = 10
	for _, restricted := range []bool{false, true} {
		cfg := NewConfig(p, n)
		if restricted {
			// A 10-cycle plus its chords of length two: 20 permitted pairs.
			g := graph.New(n)
			for u := 0; u < n; u++ {
				g.AddEdge(u, (u+1)%n)
				g.AddEdge(u, (u+2)%n)
			}
			cfg.topo = NewTopology(g)
		}
		// Activate every permitted edge except {0,1} and {2,3}; the
		// enabled set is exactly those two non-edges.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if (u == 0 && v == 1) || (u == 2 && v == 3) || (restricted && !cfg.topo.Contains(u, v)) {
					continue
				}
				cfg.SetEdge(u, v, true)
			}
		}
		bi := newBatchIndex(cfg)
		verifyBatchIndex(t, bi, cfg)
		if bi.enabled != 2 {
			t.Fatalf("restricted=%v: want 2 enabled non-edges, got %d", restricted, bi.enabled)
		}
		rng := NewRNG(5)
		counts := map[[2]int]int{}
		const draws = 2000
		for i := 0; i < draws; i++ {
			u, v := bi.Sample(rng)
			if u > v {
				u, v = v, u
			}
			if !(u == 0 && v == 1) && !(u == 2 && v == 3) {
				t.Fatalf("restricted=%v: sampled pair (%d,%d) outside the enabled set", restricted, u, v)
			}
			counts[[2]int{u, v}]++
		}
		for pair, c := range counts {
			if c < draws/4 {
				t.Fatalf("restricted=%v: pair %v drawn %d of %d times — not uniform", restricted, pair, c, draws)
			}
		}
		if bi.fallbacks == 0 {
			t.Fatalf("restricted=%v: the saturated class never took the exact walk", restricted)
		}
	}
}

// TestBatchIndexTopologyCensus drives the index under restricted
// topologies along random trajectories — scheduler draws over the
// permitted pairs through Update, interleaved with out-of-band node
// and edge writes through the Mutator hooks — and verifies the
// permitted-pair census and every weight against brute force after
// each change, on both edge stores. Sampled pairs must be permitted
// and enabled.
func TestBatchIndexTopologyCensus(t *testing.T) {
	t.Parallel()
	for name, p := range batchProtocols(t) {
		p := p
		for _, specText := range []string{"gnp@0.4", "rgg@0.5"} {
			for _, sparse := range []bool{false, true} {
				specText, sparse := specText, sparse
				label := name + "/" + specText + "/dense-store"
				if sparse {
					label = name + "/" + specText + "/sparse-store"
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					const n = 14
					spec, err := ParseTopologySpec(specText)
					if err != nil {
						t.Fatal(err)
					}
					topo, err := spec.Realize(n, 3)
					if err != nil {
						t.Fatal(err)
					}
					cfg := NewConfig(p, n)
					if sparse {
						cfg.store = &sparseStore{n: n, adj: make([][]int32, n)}
					}
					cfg.topo = topo
					bi := newBatchIndex(cfg)
					verifyBatchIndex(t, bi, cfg)
					mut := &Mutator{cfg: cfg, ix: bi}
					rng := NewRNG(19)
					for step := 0; step < 1500; step++ {
						switch r := rng.IntN(10); {
						case r == 0:
							mut.SetNode(rng.IntN(n), State(rng.IntN(p.Size())))
						case r == 1:
							// Edge writes stay within the permitted set.
							u, v := topo.SamplePair(rng)
							mut.SetEdge(u, v, rng.Coin())
						case bi.enabled > 0 && r < 5:
							u, v := bi.Sample(rng)
							if !topo.Contains(u, v) || !p.EffectiveOn(cfg.Node(u), cfg.Node(v), cfg.Edge(u, v)) {
								t.Fatalf("step %d: sampled (%d,%d), not a permitted enabled pair", step, u, v)
							}
							beforeU, beforeV := cfg.Node(u), cfg.Node(v)
							if effective, edgeChanged := cfg.Apply(u, v, rng); effective {
								bi.Update(u, v, beforeU, beforeV, edgeChanged)
							}
						default:
							u, v := topo.SamplePair(rng)
							beforeU, beforeV := cfg.Node(u), cfg.Node(v)
							if effective, edgeChanged := cfg.Apply(u, v, rng); effective {
								bi.Update(u, v, beforeU, beforeV, edgeChanged)
							}
						}
						verifyBatchIndex(t, bi, cfg)
					}
				})
			}
		}
	}
}

// TestSparseEngineRuns exercises core.Run with EngineSparse end to end
// on the index battery, cross-checking final stability against the
// brute-force scan.
func TestSparseEngineRuns(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(p, 16, Options{Seed: 9, Engine: EngineSparse})
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != EngineSparse {
				t.Fatalf("ran on %v, want sparse", res.Engine)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res)
			}
			if !res.Final.Quiescent() {
				t.Fatalf("quiescence detector fired on a non-quiescent configuration")
			}
		})
	}
}

// TestSparseEngineValidation pins the option errors and the
// auto-selection boundaries of the sparse path.
func TestSparseEngineValidation(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	if _, err := Run(p, 8, Options{Engine: EngineSparse, Scheduler: &RoundRobinScheduler{}}); err == nil {
		t.Fatal("sparse engine accepted a non-uniform scheduler")
	}
	if _, err := Run(p, maxSparseNodes+1, Options{Engine: EngineSparse, MaxSteps: 1}); err == nil {
		t.Fatal("sparse engine accepted a population above its cap")
	}
	// Auto picks batch on both edge stores…
	for _, n := range []int{16, maxDenseEdgeNodes + 1} {
		res, err := Run(p, n, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != EngineBatch {
			t.Fatalf("auto at n=%d ran on %v, want batch", n, res.Engine)
		}
		if !res.Converged {
			t.Fatalf("epidemic did not converge at n=%d: %+v", n, res)
		}
	}
	// …but keeps exact-stepping runs on the sparse engine they are
	// bit-identical to: an attached event sink forces it.
	res, err := Run(p, maxDenseEdgeNodes+1, Options{Seed: 1, Events: &stepCounter{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineSparse {
		t.Fatalf("auto with an event sink ran on %v, want sparse", res.Engine)
	}
}

// TestParseEngineSparse covers the flag/spec name round-trip.
func TestParseEngineSparse(t *testing.T) {
	t.Parallel()
	e, err := ParseEngine("sparse")
	if err != nil || e != EngineSparse {
		t.Fatalf("ParseEngine(sparse) = %v, %v", e, err)
	}
	if EngineSparse.String() != "sparse" {
		t.Fatalf("EngineSparse.String() = %q", EngineSparse.String())
	}
}
