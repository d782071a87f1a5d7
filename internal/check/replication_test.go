package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// TestReplicationStabilizes model-checks the paper's only randomized
// direct constructor: every probabilistic branch of Protocol 9 is
// explored, verifying that from every reachable configuration the
// population can still stabilize to a V2 replica of the input. This
// exercises the checker's handling of PREL (probability-½) rules.
func TestReplicationStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.GraphReplication()
	for _, tc := range []struct {
		name string
		g1   *graph.Graph
		n    int
	}{
		{"edge-onto-2", graph.Line(2), 4},
		{"edge-onto-3", graph.Line(2), 5},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			initial, err := protocols.ReplicationInitial(c.Proto, tc.g1, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			target := func(cfg *core.Config) bool {
				out, _ := protocols.OutputGraph(cfg)
				// The replica lives on the matched V2 nodes; spare r0
				// nodes are not output states, so the output graph is
				// exactly the candidate replica.
				return graph.Isomorphic(out, tc.g1)
			}
			s, err := Explore(c.Proto, tc.n, Options{Initial: initial, MaxConfigs: 4_000_000})
			if err != nil {
				t.Fatal(err)
			}
			rep := s.Verify(target)
			if rep.TargetStable == 0 {
				t.Fatalf("no replica-stable configuration among %d reachable", rep.Reachable)
			}
			if !rep.AllReachTarget {
				t.Fatalf("configuration cannot reach a stable replica: %s", rep.Counterexample)
			}
			t.Logf("%s: %d reachable, %d output-stable, %d replica-stable",
				tc.name, rep.Reachable, rep.OutputStable, rep.TargetStable)
		})
	}
}

// TestReplicationDetectorSound: the iso-based detector accepts only
// output-stable configurations — exhaustively.
func TestReplicationDetectorSound(t *testing.T) {
	t.Parallel()
	c := protocols.GraphReplication()
	g1 := graph.Line(2)
	initial, err := protocols.ReplicationInitial(c.Proto, g1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Explore(c.Proto, 4, Options{Initial: initial, MaxConfigs: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := s.DetectorSound(protocols.ReplicationDetector(g1))
	if err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("detector accepted nothing")
	}
}
