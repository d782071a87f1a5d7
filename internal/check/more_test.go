package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

// TestKRC3Stabilizes machine-verifies Theorem 11 for k=3 on the
// smallest populations: every fair execution reaches a stable
// connected network with at least n−k+1 nodes at degree k.
func TestKRC3Stabilizes(t *testing.T) {
	t.Parallel()
	c, err := protocols.KRC(3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 4; n <= 5; n++ {
		s, err := Explore(c.Proto, n, Options{MaxConfigs: 8_000_000})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rep := s.Verify(func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsNearKRegularConnected(3)
		})
		if rep.TargetStable == 0 {
			t.Fatalf("n=%d: no target-stable configuration among %d reachable", n, rep.Reachable)
		}
		if !rep.AllReachTarget {
			t.Fatalf("n=%d: configuration cannot reach the target: %s", n, rep.Counterexample)
		}
		t.Logf("n=%d: %d reachable, %d target-stable", n, rep.Reachable, rep.TargetStable)
	}
}

// TestCliquesPairsStabilize machine-verifies the c=2 instance of
// Theorem 12 (partition into pairs): every fair execution reaches a
// stable maximum matching.
func TestCliquesPairsStabilize(t *testing.T) {
	t.Parallel()
	c, err := protocols.CCliques(2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 5; n++ {
		s, err := Explore(c.Proto, n, Options{MaxConfigs: 8_000_000})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rep := s.Verify(func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsMaximumMatching()
		})
		if rep.TargetStable == 0 {
			t.Fatalf("n=%d: no target-stable configuration among %d reachable", n, rep.Reachable)
		}
		if !rep.AllReachTarget {
			t.Fatalf("n=%d: cannot reach a stable matching: %s", n, rep.Counterexample)
		}
	}
}

// TestDegreeDoublingStabilizes machine-verifies the Section 5 degree
// construction for d=1: the distinguished node always ends with
// exactly two neighbors.
func TestDegreeDoublingStabilizes(t *testing.T) {
	t.Parallel()
	c, err := protocols.DegreeDoubling(1)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := c.Initial(4)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := c.Proto.StateIndex("q")
	s, err := Explore(c.Proto, 4, Options{Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Verify(func(cfg *core.Config) bool {
		for u := 0; u < cfg.N(); u++ {
			if cfg.Node(u) == q {
				return cfg.Degree(u) == 2
			}
		}
		return false
	})
	if rep.TargetStable == 0 || !rep.AllReachTarget {
		t.Fatalf("degree doubling: %+v (counterexample %s)", rep, rep.Counterexample)
	}
}
