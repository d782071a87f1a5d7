package protocols

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func runReplication(t *testing.T, g1 *graph.Graph, n int, seed uint64) *core.Config {
	t.Helper()
	c := GraphReplication()
	initial, err := ReplicationInitial(c.Proto, g1, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c.Proto, n, core.Options{
		Seed:     seed,
		Detector: ReplicationDetector(g1),
		Initial:  initial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("replication of %v on n=%d did not converge", g1, n)
	}
	return res.Final
}

func replicaOf(t *testing.T, c Constructor, final *core.Config) *graph.Graph {
	t.Helper()
	rState, ok := c.Proto.StateIndex("r")
	if !ok {
		t.Fatal("no r state")
	}
	var members []int
	for u := 0; u < final.N(); u++ {
		if final.Node(u) == rState {
			members = append(members, u)
		}
	}
	g := graph.New(len(members))
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if final.Edge(members[i], members[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestReplicationOfNamedGraphs(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	cases := []struct {
		name string
		g1   *graph.Graph
	}{
		{"line", graph.Line(5)},
		{"ring", graph.Ring(6)},
		{"star", graph.Star(5)},
		{"complete", graph.Complete(4)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			final := runReplication(t, tc.g1, 2*tc.g1.N(), 3)
			got := replicaOf(t, c, final)
			if !graph.Isomorphic(tc.g1, got) {
				t.Fatalf("replica %v not isomorphic to input %v", got, tc.g1)
			}
		})
	}
}

func TestReplicationOfRandomGraphs(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		g1 := graph.Gnp(6, 0.5, rng)
		if !g1.Connected() {
			// The paper assumes connected inputs.
			continue
		}
		final := runReplication(t, g1, 12, seed)
		if got := replicaOf(t, c, final); !graph.Isomorphic(g1, got) {
			t.Fatalf("seed %d: replica %v not isomorphic to %v", seed, got, g1)
		}
	}
}

// TestReplicationSpareNodesUntouched: with |V2| > |V1| the surplus V2
// nodes must stay in r0 forever (the protocol introduces no waste).
// TestRingReplicationDetectorAcrossSizes: the registered row's detector
// keeps one input ring per population size. Shared by concurrent runs
// that alternate between two sizes, it must give every run the record
// a detector of its own gives it.
func TestRingReplicationDetectorAcrossSizes(t *testing.T) {
	t.Parallel()
	run := func(c Constructor, n int, seed uint64) core.Result {
		initial, err := c.Initial(n)
		if err != nil {
			t.Error(err)
			return core.Result{}
		}
		res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector, Initial: initial})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	sizes := []int{8, 12, 8, 12, 10, 8}
	want := make([]core.Result, len(sizes))
	for i, n := range sizes {
		want[i] = run(ringReplication(), n, uint64(i+1))
	}
	shared := ringReplication()
	got := make([]core.Result, len(sizes))
	var wg sync.WaitGroup
	for i, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(shared, n, uint64(i+1))
		}()
	}
	wg.Wait()
	for i, n := range sizes {
		g, w := got[i], want[i]
		if !w.Converged || g.Converged != w.Converged || g.Steps != w.Steps ||
			g.Metrics.DetectorChecks != w.Metrics.DetectorChecks || g.Final.Fingerprint() != w.Final.Fingerprint() {
			t.Errorf("n=%d seed=%d: shared detector gave converged=%v steps=%d checks=%d, own detector converged=%v steps=%d checks=%d",
				n, i+1, g.Converged, g.Steps, g.Metrics.DetectorChecks, w.Converged, w.Steps, w.Metrics.DetectorChecks)
		}
	}
}

func TestReplicationSpareNodesUntouched(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	g1 := graph.Ring(4)
	n := 2*g1.N() + 3
	final := runReplication(t, g1, n, 2)
	r0, _ := c.Proto.StateIndex("r0")
	if got := final.Count(r0); got != 3 {
		t.Fatalf("%d spare nodes left in r0, want 3", got)
	}
	for u := 0; u < n; u++ {
		if final.Node(u) == r0 && final.Degree(u) != 0 {
			t.Fatalf("spare node %d has active edges", u)
		}
	}
}

func TestReplicationInitialValidation(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	if _, err := ReplicationInitial(c.Proto, graph.Ring(5), 8); err == nil {
		t.Fatal("|V2| < |V1| accepted")
	}
}

func TestReplicationStateCount(t *testing.T) {
	t.Parallel()
	if got := GraphReplication().Proto.Size(); got != 12 {
		t.Fatalf("Graph-Replication has %d states, paper says 12", got)
	}
	if !GraphReplication().Proto.Randomized() {
		t.Fatal("Graph-Replication must be a PREL (randomized) protocol")
	}
}

// TestReplicationOutputSet: Qout excludes all V1 states, so the output
// graph is carried entirely by V2.
func TestReplicationOutputSet(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	for _, name := range []string{"q0", "l", "la", "ld", "f", "fa", "fd", "r0"} {
		s, ok := c.Proto.StateIndex(name)
		if !ok {
			t.Fatalf("missing state %q", name)
		}
		if c.Proto.IsOutput(s) {
			t.Fatalf("V1/blank state %q is in Qout", name)
		}
	}
	for _, name := range []string{"r", "ra", "rd", "r'"} {
		s, _ := c.Proto.StateIndex(name)
		if !c.Proto.IsOutput(s) {
			t.Fatalf("V2 state %q missing from Qout", name)
		}
	}
}

func TestDegreeDoubling(t *testing.T) {
	t.Parallel()
	for d := 1; d <= 4; d++ {
		d := d
		t.Run(string(rune('0'+d)), func(t *testing.T) {
			t.Parallel()
			cons, err := DegreeDoubling(d)
			if err != nil {
				t.Fatal(err)
			}
			n := (1 << d) + 3
			initial, err := DegreeDoublingInitial(cons.Proto, n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(cons.Proto, n, core.Options{Seed: 4, Detector: cons.Detector, Initial: initial})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("d=%d: no convergence", d)
			}
			if got := res.Final.Degree(0); got != 1<<d {
				t.Fatalf("d=%d: center degree %d, want %d", d, got, 1<<d)
			}
		})
	}
}

func TestDegreeDoublingValidation(t *testing.T) {
	t.Parallel()
	if _, err := DegreeDoubling(0); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := DegreeDoubling(64); err == nil {
		t.Fatal("absurd d accepted")
	}
	c, err := DegreeDoubling(2)
	if err != nil {
		t.Fatal(err)
	}
	other := core.MustProtocol("other", []string{"x"}, 0, nil, nil)
	if _, err := DegreeDoublingInitial(other, 8); err == nil {
		t.Fatal("foreign protocol accepted")
	}
	_ = c
}

func TestRegistryLookup(t *testing.T) {
	t.Parallel()
	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	for _, name := range names {
		c, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Proto == nil || c.Target == "" {
			t.Fatalf("registry entry %q incomplete", name)
		}
	}
	if _, err := Lookup("no-such-protocol"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestOutputGraphHelper(t *testing.T) {
	t.Parallel()
	c := GraphReplication()
	g1 := graph.Line(3)
	initial, err := ReplicationInitial(c.Proto, g1, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Before any interaction, no node is in an output state.
	out, members := OutputGraph(initial)
	if out.N() != 0 || len(members) != 0 {
		t.Fatalf("initial output graph should be empty, got %v", out)
	}
}
