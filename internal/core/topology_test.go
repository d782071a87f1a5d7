package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// pathTopology returns the path 0–1–…–(n−1) as a Topology.
func pathTopology(n int) *Topology {
	g := graph.New(n)
	for u := 0; u+1 < n; u++ {
		g.AddEdge(u, u+1)
	}
	return NewTopology(g)
}

// matchingProtocol activates an edge between any two q0 nodes and
// parks both endpoints — quiescent exactly when no permitted pair has
// two q0 endpoints left.
func matchingProtocol() *Protocol {
	return MustProtocol("match", []string{"q0", "m"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
}

func TestTopologyStructure(t *testing.T) {
	t.Parallel()
	g := graph.New(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(1, 0)
	topo := NewTopology(g)
	if topo.N() != 5 {
		t.Fatalf("N = %d, want 5", topo.N())
	}
	if topo.PairCount() != 3 {
		t.Fatalf("PairCount = %d, want 3", topo.PairCount())
	}
	want := [][2]int{{0, 1}, {0, 4}, {1, 3}} // sorted, u < v
	for i, w := range want {
		if u, v := topo.PairAt(i); u != w[0] || v != w[1] {
			t.Fatalf("PairAt(%d) = {%d,%d}, want {%d,%d}", i, u, v, w[0], w[1])
		}
	}
	for _, w := range want {
		if !topo.Contains(w[0], w[1]) || !topo.Contains(w[1], w[0]) {
			t.Fatalf("Contains(%d,%d) should hold in both orientations", w[0], w[1])
		}
	}
	for _, bad := range [][2]int{{0, 3}, {2, 4}, {1, 4}, {2, 0}} {
		if topo.Contains(bad[0], bad[1]) {
			t.Fatalf("Contains(%d,%d) should be false", bad[0], bad[1])
		}
	}
	if topo.Degree(0) != 2 || topo.Degree(2) != 0 || topo.Degree(1) != 2 {
		t.Fatalf("degrees = %d,%d,%d; want 2,0,2", topo.Degree(0), topo.Degree(2), topo.Degree(1))
	}
}

func TestTopologySamplePairCoversPermittedPairsOnly(t *testing.T) {
	t.Parallel()
	topo := pathTopology(6)
	rng := NewRNG(42)
	type pair struct{ u, v int }
	hits := make(map[pair]int)
	flipped := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		u, v := topo.SamplePair(rng)
		if u > v {
			flipped++
			u, v = v, u
		}
		if !topo.Contains(u, v) {
			t.Fatalf("sampled non-permitted pair {%d,%d}", u, v)
		}
		hits[pair{u, v}]++
	}
	if len(hits) != topo.PairCount() {
		t.Fatalf("sampled %d distinct pairs, want all %d", len(hits), topo.PairCount())
	}
	// Uniform over 5 pairs: each expects 1000 draws; 4σ ≈ 127.
	for p, c := range hits {
		if c < 800 || c > 1200 {
			t.Fatalf("pair %v drawn %d times, outside [800, 1200]", p, c)
		}
	}
	if flipped < draws/3 || flipped > 2*draws/3 {
		t.Fatalf("orientation flip count %d of %d is not coin-like", flipped, draws)
	}
}

func TestParseTopologySpec(t *testing.T) {
	t.Parallel()
	if spec, err := ParseTopologySpec(""); err != nil || spec != nil {
		t.Fatalf("empty string: got (%v, %v), want (nil, nil)", spec, err)
	}
	spec, err := ParseTopologySpec("complete")
	if err != nil || spec == nil || spec.Kind != TopoComplete {
		t.Fatalf("complete: got (%v, %v)", spec, err)
	}
	if spec.Label() != "" {
		t.Fatalf("complete Label = %q, want empty (pre-topology record compatibility)", spec.Label())
	}
	for _, s := range []string{"gnp@0.05", "rgg@0.1", "cm@4"} {
		spec, err := ParseTopologySpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if spec.String() != s || spec.Label() != s {
			t.Fatalf("%s: String=%q Label=%q", s, spec.String(), spec.Label())
		}
		var rt TopologySpec
		if err := rt.UnmarshalText([]byte(s)); err != nil || rt != *spec {
			t.Fatalf("%s: text round-trip gave %+v (%v)", s, rt, err)
		}
	}
	for _, s := range []string{"ring@3", "gnp", "gnp@", "gnp@x", "@0.5"} {
		if _, err := ParseTopologySpec(s); err == nil {
			t.Fatalf("%q: want parse error", s)
		}
	}
}

func TestTopologySpecValidate(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		spec TopologySpec
		n    int
		ok   bool
	}{
		{TopologySpec{Kind: TopoGnp, Param: 0.5}, 10, true},
		{TopologySpec{Kind: TopoGnp, Param: 1.5}, 10, false},
		{TopologySpec{Kind: TopoGnp, Param: -0.1}, 10, false},
		{TopologySpec{Kind: TopoRGG, Param: 0.1}, 10, true},
		{TopologySpec{Kind: TopoRGG, Param: 0}, 10, false},
		{TopologySpec{Kind: TopoCM, Param: 2}, 10, true},
		{TopologySpec{Kind: TopoCM, Param: 2.5}, 10, false},
		{TopologySpec{Kind: TopoCM, Param: 10}, 10, false}, // d > n−1
		{TopologySpec{Kind: TopoCM, Param: 3}, 5, false},   // n·d odd
		{TopologySpec{Kind: "ring", Param: 1}, 10, false},
	} {
		err := tc.spec.Validate(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("%+v n=%d: got err %v, want ok=%t", tc.spec, tc.n, err, tc.ok)
		}
	}
}

func TestTopologySpecBuildAndRealize(t *testing.T) {
	t.Parallel()
	if topo, err := (*TopologySpec)(nil).Build(16, 1); err != nil || topo != nil {
		t.Fatalf("nil spec: got (%v, %v), want (nil, nil)", topo, err)
	}
	complete := &TopologySpec{Kind: TopoComplete}
	if topo, err := complete.Build(16, 1); err != nil || topo != nil {
		t.Fatalf("complete spec: got (%v, %v), want (nil, nil) — the engines' fast path", topo, err)
	}
	spec := &TopologySpec{Kind: TopoGnp, Param: 0.3}
	a, err := spec.Realize(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Realize(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.PairCount() != b.PairCount() {
		t.Fatalf("same seed realized different graphs: %d vs %d pairs", a.PairCount(), b.PairCount())
	}
	for i := 0; i < a.PairCount(); i++ {
		au, av := a.PairAt(i)
		bu, bv := b.PairAt(i)
		if au != bu || av != bv {
			t.Fatalf("same seed realized different graphs at pair %d", i)
		}
	}
	c, err := spec.Realize(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := c.PairCount() == a.PairCount()
	if same {
		for i := 0; i < a.PairCount(); i++ {
			au, av := a.PairAt(i)
			cu, cv := c.PairAt(i)
			if au != cu || av != cv {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("adjacent seeds realized identical G(32, 0.3) instances (possible but astronomically unlikely)")
	}
}

// TestCompleteTopologyBitIdentical pins the refactor's zero-cost
// contract: a run whose topology came from the "complete" spec is
// bit-identical to a run with no topology at all, on every engine —
// complete builds to a nil *Topology, so the engines execute the exact
// pre-topology code path.
func TestCompleteTopologyBitIdentical(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	spec, err := ParseTopologySpec("complete")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineBaseline, EngineSparse, EngineBatch} {
		topo, err := spec.Realize(24, 5)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(p, 24, Options{Seed: 5, Engine: eng, Detector: QuiescenceDetector()})
		if err != nil {
			t.Fatal(err)
		}
		withSpec, err := Run(p, 24, Options{Seed: 5, Engine: eng, Detector: QuiescenceDetector(), Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		if base.Steps != withSpec.Steps || base.ConvergenceTime != withSpec.ConvergenceTime ||
			base.EffectiveSteps != withSpec.EffectiveSteps || base.EdgeChanges != withSpec.EdgeChanges {
			t.Fatalf("%s: complete-spec run diverged from plain run: %+v vs %+v", eng, base, withSpec)
		}
		if base.Final.Fingerprint() != withSpec.Final.Fingerprint() {
			t.Fatalf("%s: complete-spec final configuration differs", eng)
		}
	}
}

func TestRunTopologyValidation(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	det := QuiescenceDetector()

	if _, err := Run(p, 8, Options{Seed: 1, Detector: det, Topology: pathTopology(6)}); err == nil ||
		!strings.Contains(err.Error(), "topology has 6 nodes") {
		t.Fatalf("population mismatch: got %v", err)
	}
	if _, err := Run(p, 4, Options{Seed: 1, Detector: det, Topology: NewTopology(graph.New(4))}); err == nil ||
		!strings.Contains(err.Error(), "permits no pairs") {
		t.Fatalf("empty topology: got %v", err)
	}
	for _, sched := range []Scheduler{&WeightedScheduler{}, &BiasedScheduler{Cut: 2, Epsilon: 0.5}} {
		if _, err := Run(p, 6, Options{Seed: 1, Detector: det, Scheduler: sched, Topology: pathTopology(6)}); err == nil ||
			!strings.Contains(err.Error(), "does not support a restricted topology") {
			t.Fatalf("%s scheduler: got %v", sched.Name(), err)
		}
	}

	// An initial configuration with an active edge outside the permitted
	// set violates active ⊆ permitted and must be rejected; the same
	// edge on a permitted pair is fine.
	bad := NewConfig(p, 6)
	bad.SetNode(0, 1)
	bad.SetNode(3, 1)
	bad.SetEdge(0, 3, true) // path 0–1–…–5 does not permit {0, 3}
	if _, err := Run(p, 6, Options{Seed: 1, Detector: det, Topology: pathTopology(6), Initial: bad}); err == nil ||
		!strings.Contains(err.Error(), "outside the permitted topology") {
		t.Fatalf("out-of-topology active edge: got %v", err)
	}
	good := NewConfig(p, 6)
	good.SetNode(0, 1)
	good.SetNode(1, 1)
	good.SetEdge(0, 1, true)
	if _, err := Run(p, 6, Options{Seed: 1, Detector: det, Topology: pathTopology(6), Initial: good}); err != nil {
		t.Fatalf("permitted active edge rejected: %v", err)
	}
}

// TestRestrictedRunsKeepActiveWithinTopology runs the matching
// protocol under a sparse random topology on every engine and checks
// the invariant the indexes rely on: every active edge of the final
// configuration is a permitted pair, and the run quiesced.
func TestRestrictedRunsKeepActiveWithinTopology(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	spec := &TopologySpec{Kind: TopoGnp, Param: 0.15}
	for _, eng := range []Engine{EngineBaseline, EngineSparse, EngineBatch} {
		topo, err := spec.Realize(32, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, 32, Options{Seed: 11, Engine: eng, Detector: QuiescenceDetector(), Topology: topo})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !res.Converged {
			t.Fatalf("%s: matching did not quiesce under the restricted topology", eng)
		}
		res.Final.ForEachActiveEdge(func(u, v int) {
			if !topo.Contains(u, v) {
				t.Errorf("%s: active edge {%d,%d} outside the permitted topology", eng, u, v)
			}
		})
		// Quiescence under topology means no permitted pair is enabled:
		// for the matching rule, no permitted pair has two q0 endpoints.
		for i := 0; i < topo.PairCount(); i++ {
			u, v := topo.PairAt(i)
			if res.Final.Node(u) == 0 && res.Final.Node(v) == 0 {
				t.Fatalf("%s: permitted pair {%d,%d} still enabled at quiescence", eng, u, v)
			}
		}
	}
}

// TestSparseBatchBitIdenticalUnderTopology pins the batch engine's
// exact-fallback contract: with a restricted topology attached, a
// batch run is bit-identical to the sparse run with the same seed.
func TestSparseBatchBitIdenticalUnderTopology(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	spec := &TopologySpec{Kind: TopoRGG, Param: 0.25}
	for seed := uint64(1); seed <= 4; seed++ {
		topoA, err := spec.Realize(48, seed)
		if err != nil {
			t.Fatal(err)
		}
		topoB, err := spec.Realize(48, seed)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := Run(p, 48, Options{Seed: seed, Engine: EngineSparse, Detector: QuiescenceDetector(), Topology: topoA})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Run(p, 48, Options{Seed: seed, Engine: EngineBatch, Detector: QuiescenceDetector(), Topology: topoB})
		if err != nil {
			t.Fatal(err)
		}
		if sparse.Steps != batch.Steps || sparse.ConvergenceTime != batch.ConvergenceTime ||
			sparse.EffectiveSteps != batch.EffectiveSteps || sparse.EdgeChanges != batch.EdgeChanges {
			t.Fatalf("seed %d: sparse %+v vs batch %+v", seed, sparse, batch)
		}
		if sparse.Final.Fingerprint() != batch.Final.Fingerprint() {
			t.Fatalf("seed %d: final configurations differ", seed)
		}
		if batch.Metrics.ExactFallbackLandings != batch.Metrics.Landings {
			t.Fatalf("seed %d: batch run under topology must exact-step every landing (%d of %d)",
				seed, batch.Metrics.ExactFallbackLandings, batch.Metrics.Landings)
		}
	}
}

// TestRestrictedRunsUnderFairSchedulers covers the two deterministic
// fair schedulers' restricted forms: both must cycle over exactly the
// permitted pairs and still converge.
func TestRestrictedRunsUnderFairSchedulers(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	for _, mk := range []func() Scheduler{
		func() Scheduler { return &RoundRobinScheduler{} },
		func() Scheduler { return &PermutationScheduler{} },
	} {
		sched := mk()
		res, err := Run(p, 12, Options{Seed: 3, Scheduler: sched, Detector: QuiescenceDetector(), Topology: pathTopology(12)})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge under the restricted topology", sched.Name())
		}
	}
}

// TestQuiescentScanHonorsTopology checks Config.Quiescent's restricted
// scan: a pair that would be enabled on the complete graph does not
// block quiescence when the topology forbids it.
func TestQuiescentScanHonorsTopology(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	cfg := NewConfig(p, 4)
	// Path 0–1–2–3; park 1 and 2 so only the non-permitted pair {0, 3}
	// has two q0 endpoints.
	cfg.SetNode(1, 1)
	cfg.SetNode(2, 1)
	if cfg.Quiescent() {
		t.Fatal("complete graph: {0,3} is enabled, not quiescent")
	}
	cfg.topo = pathTopology(4)
	if !cfg.Quiescent() {
		t.Fatal("restricted graph: no permitted pair is enabled, should be quiescent")
	}
	if !cfg.EdgeQuiescent() {
		t.Fatal("restricted graph: should be edge-quiescent too")
	}
}

// TestWorkspaceAcrossTopologies checks that the workspace's census
// index rebuilds its permitted-pair census per run: alternating
// topologies through one workspace must not leak one run's index into
// the next.
func TestWorkspaceAcrossTopologies(t *testing.T) {
	t.Parallel()
	p := matchingProtocol()
	ws := NewWorkspace()
	spec := &TopologySpec{Kind: TopoGnp, Param: 0.3}
	for seed := uint64(1); seed <= 3; seed++ {
		topo, err := spec.Realize(16, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(p, 16, Options{Seed: seed, Engine: EngineSparse, Detector: QuiescenceDetector(), Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		topo2, err := spec.Realize(16, seed)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := Run(p, 16, Options{Seed: seed, Engine: EngineSparse, Detector: QuiescenceDetector(), Topology: topo2, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Steps != reused.Steps || fresh.EffectiveSteps != reused.EffectiveSteps ||
			fresh.EdgeChanges != reused.EdgeChanges || fresh.Final.Fingerprint() != reused.Final.Fingerprint() {
			t.Fatalf("seed %d: workspace run diverged from fresh run under per-trial topologies", seed)
		}
	}
}
