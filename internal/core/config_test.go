package core

import (
	"testing"
	"testing/quick"
)

func testProtocol(t *testing.T) *Protocol {
	t.Helper()
	return MustProtocol("t", []string{"a", "b", "c"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 2, OutEdge: true}, // coin
		{A: 1, B: 2, Edge: true, OutA: 2, OutB: 2, OutEdge: false},
	})
}

func TestConfigInitialState(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 7)
	if cfg.N() != 7 {
		t.Fatalf("N = %d", cfg.N())
	}
	if cfg.Count(0) != 7 || cfg.Count(1) != 0 {
		t.Fatalf("counts %d/%d", cfg.Count(0), cfg.Count(1))
	}
	if cfg.ActiveEdges() != 0 {
		t.Fatal("initial config has active edges")
	}
	for u := 0; u < 7; u++ {
		if cfg.Degree(u) != 0 {
			t.Fatalf("node %d degree %d", u, cfg.Degree(u))
		}
	}
}

func TestSetNodeMaintainsCounts(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 4)
	cfg.SetNode(0, 1)
	cfg.SetNode(1, 1)
	cfg.SetNode(0, 2)
	if cfg.Count(0) != 2 || cfg.Count(1) != 1 || cfg.Count(2) != 1 {
		t.Fatalf("counts %d/%d/%d", cfg.Count(0), cfg.Count(1), cfg.Count(2))
	}
	if cfg.Count(99) != 0 {
		t.Fatal("out-of-range count not zero")
	}
}

func TestSetEdgeMaintainsDegrees(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 5)
	cfg.SetEdge(1, 3, true)
	cfg.SetEdge(3, 1, true) // idempotent, reversed orientation
	if cfg.Degree(1) != 1 || cfg.Degree(3) != 1 {
		t.Fatalf("degrees %d/%d", cfg.Degree(1), cfg.Degree(3))
	}
	if !cfg.Edge(3, 1) {
		t.Fatal("edge not symmetric")
	}
	cfg.SetEdge(1, 3, false)
	if cfg.Degree(1) != 0 || cfg.ActiveEdges() != 0 {
		t.Fatal("deactivation did not restore degrees")
	}
}

func TestApplyCoinAssignsBothWays(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	rng := NewRNG(1)
	gotB0 := false
	gotB1 := false
	for trial := 0; trial < 200 && !(gotB0 && gotB1); trial++ {
		cfg := NewConfig(p, 2)
		effective, edgeChanged := cfg.Apply(0, 1, rng)
		if !effective || !edgeChanged {
			t.Fatal("coin rule must be effective and change the edge")
		}
		switch {
		case cfg.Node(0) == 1 && cfg.Node(1) == 2:
			gotB0 = true
		case cfg.Node(0) == 2 && cfg.Node(1) == 1:
			gotB1 = true
		default:
			t.Fatalf("unexpected outcome (%d,%d)", cfg.Node(0), cfg.Node(1))
		}
	}
	if !gotB0 || !gotB1 {
		t.Fatal("symmetry-breaking coin never produced one of the orientations")
	}
}

func TestApplyIneffective(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 3)
	cfg.SetNode(0, 2)
	cfg.SetNode(1, 2)
	effective, edgeChanged := cfg.Apply(0, 1, NewRNG(1))
	if effective || edgeChanged {
		t.Fatal("ineffective pair reported as effective")
	}
}

// TestApplyInvariants drives random interactions and checks the
// aggregate invariants: state counts always sum to n and per-node
// degrees always match the edge set.
func TestApplyInvariants(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	f := func(seed uint64) bool {
		const n = 9
		cfg := NewConfig(p, n)
		rng := NewRNG(seed)
		for step := 0; step < 300; step++ {
			u, v := rng.Pair(n)
			cfg.Apply(u, v, rng)
		}
		total := 0
		for s := 0; s < p.Size(); s++ {
			total += cfg.Count(State(s))
		}
		if total != n {
			return false
		}
		for u := 0; u < n; u++ {
			deg := 0
			for v := 0; v < n; v++ {
				if v != u && cfg.Edge(u, v) {
					deg++
				}
			}
			if deg != cfg.Degree(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 4)
	cfg.SetEdge(0, 1, true)
	cp := cfg.Clone()
	cp.SetNode(2, 1)
	cp.SetEdge(0, 1, false)
	if cfg.Node(2) != 0 || !cfg.Edge(0, 1) {
		t.Fatal("clone mutations leaked into the original")
	}
	if cp.Protocol() != p {
		t.Fatal("clone lost its protocol")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	a := NewConfig(p, 4)
	b := NewConfig(p, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configurations have different fingerprints")
	}
	b.SetNode(3, 1)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("node-state difference not fingerprinted")
	}
	c := NewConfig(p, 4)
	c.SetEdge(1, 2, true)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("edge difference not fingerprinted")
	}
}

func TestQuiescence(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 3)
	if cfg.Quiescent() {
		t.Fatal("initial config with applicable rules reported quiescent")
	}
	for u := 0; u < 3; u++ {
		cfg.SetNode(u, 2)
	}
	if !cfg.Quiescent() || !cfg.EdgeQuiescent() {
		t.Fatal("all-c config should be fully quiescent")
	}
	// (a,a,0) changes both node states and the edge.
	cfg.SetNode(0, 0)
	cfg.SetNode(1, 0)
	if cfg.EdgeQuiescent() {
		t.Fatal("config with an applicable edge rule reported edge-quiescent")
	}
}

func TestActiveNeighbors(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 5)
	cfg.SetEdge(2, 0, true)
	cfg.SetEdge(2, 4, true)
	got := cfg.ActiveNeighbors(2, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("neighbors %v", got)
	}
}

func TestConfigString(t *testing.T) {
	t.Parallel()
	p := testProtocol(t)
	cfg := NewConfig(p, 3)
	cfg.SetNode(1, 1)
	cfg.SetEdge(0, 2, true)
	s := cfg.String()
	want := "[a b a] {0-2}"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}
