package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Brute-force checks of the state-class census (batchIndex) as the
// sparse engine and batch's exact route drive it: built from arbitrary
// configurations, updated along random trajectories on both edge
// stores, restricted to a topology, and sampled — including classes
// saturated down to their last non-edges. The TestClassIndex* names
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

// seedHalfEdges activates each pair of cfg — each permitted pair when
// topo is non-nil — with probability 1/2.
func seedHalfEdges(cfg *Config, topo *Topology, rng *RNG) {
	for u := 0; u < cfg.n; u++ {
		for v := u + 1; v < cfg.n; v++ {
			if (topo == nil || topo.Contains(u, v)) && rng.Coin() {
				cfg.SetEdge(u, v, true)
			}
		}
	}
}

// TestClassIndexTracksApply drives each protocol with random
// interactions through Config.Apply + Update and verifies the index
// against brute force after every effective step. The subtests name
// the starting edge set: "dense-store" seeds every pair active with
// probability 1/2 (long adjacency rows), "sparse-store" starts with
// no active edge.
func TestClassIndexTracksApply(t *testing.T) {
	t.Parallel()
	for name, p := range indexProtocols(t) {
		p := p
		for _, dense := range []bool{true, false} {
			dense := dense
			label := name + "/sparse-store"
			if dense {
				label = name + "/dense-store"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				const n = 12
				rng := NewRNG(7)
				cfg := NewConfig(p, n)
				if dense {
					seedHalfEdges(cfg, nil, rng)
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

// TestClassIndexSample checks that sample only returns enabled pairs
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
		u, v, _ := bi.sample(rng)
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

// saturatedClassConfig returns a 10-node configuration of protocol p
// in which every pair except the survivors already holds an active
// edge, so the survivors are the only enabled non-edges. split puts
// nodes 0–4 in state 0 (epidemic starts every node in state 1, so its
// enabled class is then the off-diagonal {0, 1}); restricted attaches
// a 10-cycle plus its chords of length two (20 permitted pairs) and
// leaves unpermitted pairs off.
func saturatedClassConfig(p *Protocol, split, restricted bool, survivors [][2]int) *Config {
	const n = 10
	cfg := NewConfig(p, n)
	if split {
		for u := 0; u < n/2; u++ {
			cfg.SetNode(u, 0)
		}
	}
	if restricted {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			g.AddEdge(u, (u+1)%n)
			g.AddEdge(u, (u+2)%n)
		}
		cfg.topo = NewTopology(g)
	}
	free := map[[2]int]bool{}
	for _, pair := range survivors {
		free[pair] = true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if free[[2]int{u, v}] || (restricted && !cfg.topo.Contains(u, v)) {
				continue
			}
			cfg.SetEdge(u, v, true)
		}
	}
	return cfg
}

// saturatedCase is one saturated class: the protocol, its node split
// and topology (see saturatedClassConfig), and the surviving non-edges.
type saturatedCase struct {
	name              string
	proto             string
	split, restricted bool
	survivors         [][2]int
}

// saturatedClassCases cover each source sampleNonEdge draws from — the
// diagonal state list, two distinct state lists, a permitted-pair list
// — with five surviving non-edges and with one.
func saturatedClassCases() []saturatedCase {
	diag := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	cross := [][2]int{{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}
	return []saturatedCase{
		{"diagonal", "matching", false, false, diag},
		{"diagonal/one", "matching", false, false, diag[:1]},
		{"cross", "epidemic", true, false, cross},
		{"cross/one", "epidemic", true, false, cross[:1]},
		{"topology", "matching", false, true, diag},
		{"topology/one", "matching", false, true, diag[:1]},
	}
}

// TestClassIndexSampleSaturatedClass draws from classes where almost
// every pair already holds an active edge, so nearly every rejection
// draw fails: the draw must still land only on the surviving non-edges
// and be uniform over them (chi-square at α = 0.001) — on the complete
// graph, in an off-diagonal class, and under a topology.
func TestClassIndexSampleSaturatedClass(t *testing.T) {
	t.Parallel()
	protos := indexProtocols(t)
	for _, tc := range saturatedClassCases() {
		cfg := saturatedClassConfig(protos[tc.proto], tc.split, tc.restricted, tc.survivors)
		bi := newBatchIndex(cfg)
		verifyBatchIndex(t, bi, cfg)
		k := len(tc.survivors)
		if bi.enabled != int64(k) {
			t.Fatalf("%s: want %d enabled non-edges, got %d", tc.name, k, bi.enabled)
		}
		rng := NewRNG(5)
		bin := map[[2]int]int{}
		for i, pair := range tc.survivors {
			bin[pair] = i
		}
		counts := make([]int64, k)
		const draws = 5000
		for i := 0; i < draws; i++ {
			u, v, _ := bi.sample(rng)
			if u > v {
				u, v = v, u
			}
			i, ok := bin[[2]int{u, v}]
			if !ok {
				t.Fatalf("%s: sampled pair (%d,%d) outside the enabled set", tc.name, u, v)
			}
			counts[i]++
		}
		if k == 1 {
			continue
		}
		expected := make([]float64, k)
		for i := range expected {
			expected[i] = float64(draws) / float64(k)
		}
		if stat, crit := stats.ChiSquareStat(counts, expected), stats.ChiSquareCritical(k-1, 0.001); stat > crit {
			t.Fatalf("%s: counts %v not uniform: chi-square %.2f > %.2f", tc.name, counts, stat, crit)
		}
	}
}

// TestClassIndexSampleInconsistentPanics activates a class's last
// non-edge behind the index's back: the class keeps a weight no pair
// can satisfy, and Sample must panic with the descriptive message after
// its bounded run of rejections instead of redrawing forever.
func TestClassIndexSampleInconsistentPanics(t *testing.T) {
	t.Parallel()
	protos := indexProtocols(t)
	for _, tc := range saturatedClassCases() {
		if len(tc.survivors) != 1 {
			continue
		}
		cfg := saturatedClassConfig(protos[tc.proto], tc.split, tc.restricted, tc.survivors)
		bi := newBatchIndex(cfg)
		last := tc.survivors[0]
		cfg.SetEdge(last[0], last[1], true)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "non-edge count inconsistent with class weights") {
					t.Fatalf("%s: Sample on an inconsistent index recovered %q, want the inconsistency panic", tc.name, msg)
				}
			}()
			u, v, _ := bi.sample(NewRNG(5))
			t.Fatalf("%s: Sample returned (%d,%d) from a class with no non-edge", tc.name, u, v)
		}()
	}
}

// TestBatchIndexTopologyCensus drives the index under restricted
// topologies along random trajectories — scheduler draws over the
// permitted pairs through Update, interleaved with out-of-band node
// and edge writes through the Mutator hooks — and verifies the
// permitted-pair census and every weight against brute force after
// each change. Sampled pairs must be permitted and enabled. As in
// TestClassIndexTracksApply, "dense-store" seeds half the permitted
// pairs active and "sparse-store" starts with no active edge.
func TestBatchIndexTopologyCensus(t *testing.T) {
	t.Parallel()
	for name, p := range batchProtocols(t) {
		p := p
		for _, specText := range []string{"gnp@0.4", "rgg@0.5"} {
			for _, dense := range []bool{true, false} {
				specText, dense := specText, dense
				label := name + "/" + specText + "/sparse-store"
				if dense {
					label = name + "/" + specText + "/dense-store"
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
					cfg.topo = topo
					if dense {
						seedHalfEdges(cfg, topo, NewRNG(23))
					}
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
							u, v, _ := bi.sample(rng)
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

// TestSparseEngineValidation pins the sparse path's option errors and
// auto's choice of batch, with and without a sink or injector.
func TestSparseEngineValidation(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	if _, err := Run(p, 8, Options{Engine: EngineSparse, Scheduler: &RoundRobinScheduler{}}); err == nil {
		t.Fatal("sparse engine accepted a non-uniform scheduler")
	}
	if _, err := Run(p, maxSparseNodes+1, Options{Engine: EngineSparse, MaxSteps: 1}); err == nil {
		t.Fatal("sparse engine accepted a population above its cap")
	}
	// Auto picks batch at small and large n…
	for _, n := range []int{16, 5000} {
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
	// …and keeps batch when an event sink or fault injector is
	// attached: the run exact-steps, bit-identically to forced sparse.
	m := indexProtocols(t)["matching"]
	attachments := []struct {
		name   string
		attach func(*Options)
	}{
		{"sink", func(o *Options) { o.Events = &stepCounter{} }},
		{"injector", func(o *Options) {
			o.Injector = &scriptInjector{events: []int64{50, 400}, act: func(_ int64, mu *Mutator) { mu.SetNode(0, 0) }}
		}},
	}
	for _, a := range attachments {
		auto, sparse := Options{Seed: 1}, Options{Seed: 1, Engine: EngineSparse}
		a.attach(&auto)
		a.attach(&sparse)
		got, err := Run(m, 200, auto)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(m, 200, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if got.Engine != EngineBatch || got.Metrics.Landings == 0 || got.Metrics.ExactFallbackLandings != got.Metrics.Landings {
			t.Fatalf("auto with an attached %s ran on %v with %d of %d landings exact-stepped, want batch with all of them",
				a.name, got.Engine, got.Metrics.ExactFallbackLandings, got.Metrics.Landings)
		}
		if got.Steps != want.Steps || got.ConvergenceTime != want.ConvergenceTime || got.EffectiveSteps != want.EffectiveSteps ||
			got.EdgeChanges != want.EdgeChanges || got.Final.Fingerprint() != want.Final.Fingerprint() {
			t.Fatalf("auto with an attached %s diverged from forced sparse: steps %d/%d, convergence %d/%d, effective %d/%d, edge changes %d/%d",
				a.name, got.Steps, want.Steps, got.ConvergenceTime, want.ConvergenceTime, got.EffectiveSteps, want.EffectiveSteps, got.EdgeChanges, want.EdgeChanges)
		}
		if inj, ok := auto.Injector.(*scriptInjector); ok && len(inj.fired) != 2 {
			t.Fatalf("injector fired at %v, want steps 50 and 400", inj.fired)
		}
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
