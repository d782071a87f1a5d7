package check

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

// The model-checking tests below machine-verify the paper's
// stabilization theorems on small populations: from every reachable
// configuration, under any fair scheduler, the protocol can still
// stabilize to its target network — and the convergence detectors used
// by the simulator accept only genuinely output-stable configurations.

func requireVerified(t *testing.T, name string, c protocols.Constructor, n int, target func(cfg *core.Config) bool) Report {
	t.Helper()
	s, err := Explore(c.Proto, n, Options{})
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	rep := s.Verify(target)
	if rep.TargetStable == 0 {
		t.Fatalf("%s n=%d: no target-stable configuration among %d reachable", name, n, rep.Reachable)
	}
	if !rep.AllReachTarget {
		t.Fatalf("%s n=%d: configuration cannot reach the target: %s", name, n, rep.Counterexample)
	}
	return rep
}

func activeTarget(pred func(cfg *core.Config) bool) func(cfg *core.Config) bool {
	return pred
}

func TestSimpleGlobalLineStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.SimpleGlobalLine()
	for n := 2; n <= 5; n++ {
		rep := requireVerified(t, "Simple-Global-Line", c, n, activeTarget(func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningLine()
		}))
		t.Logf("n=%d: %d reachable, %d output-stable, %d target-stable", n, rep.Reachable, rep.OutputStable, rep.TargetStable)
	}
}

func TestFastGlobalLineStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.FastGlobalLine()
	for n := 2; n <= 4; n++ {
		requireVerified(t, "Fast-Global-Line", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningLine()
		})
	}
}

func TestFasterGlobalLineStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.FasterGlobalLine()
	for n := 2; n <= 5; n++ {
		requireVerified(t, "Faster-Global-Line", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningLine()
		})
	}
}

func TestCycleCoverStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.CycleCover()
	for n := 3; n <= 6; n++ {
		requireVerified(t, "Cycle-Cover", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsCycleCoverWithWaste(2)
		})
	}
}

func TestGlobalStarStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	for n := 2; n <= 5; n++ {
		requireVerified(t, "Global-Star", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningStar()
		})
	}
}

func TestGlobalRingStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalRing()
	for n := 3; n <= 5; n++ {
		requireVerified(t, "Global-Ring", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningRing()
		})
	}
}

func TestTwoRCStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.TwoRC()
	for n := 3; n <= 5; n++ {
		requireVerified(t, "2RC", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanningRing()
		})
	}
}

func TestSpanningNetStabilizes(t *testing.T) {
	t.Parallel()
	c := protocols.SpanningNet()
	for n := 2; n <= 6; n++ {
		requireVerified(t, "Spanning-Net", c, n, func(cfg *core.Config) bool {
			return protocols.ActiveGraph(cfg).IsSpanning()
		})
	}
}

// TestDetectorsSound verifies, exhaustively, that every configuration a
// convergence detector accepts is output-stable — i.e. the simulator's
// reported convergence times are trustworthy.
func TestDetectorsSound(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		c    protocols.Constructor
		n    int
	}{
		{"simple-global-line", protocols.SimpleGlobalLine(), 5},
		{"fast-global-line", protocols.FastGlobalLine(), 4},
		{"faster-global-line", protocols.FasterGlobalLine(), 5},
		{"cycle-cover", protocols.CycleCover(), 6},
		{"global-star", protocols.GlobalStar(), 5},
		{"global-ring", protocols.GlobalRing(), 5},
		{"2rc", protocols.TwoRC(), 5},
		{"spanning-net", protocols.SpanningNet(), 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := Explore(tc.c.Proto, tc.n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			accepted, err := s.DetectorSound(tc.c.Detector)
			if err != nil {
				t.Fatal(err)
			}
			if accepted == 0 {
				t.Fatal("detector accepted no configuration")
			}
		})
	}
}

// TestVerifyDetectsBrokenProtocol ensures the checker actually fails on
// a protocol that cannot reach its claimed target: a protocol that
// activates every edge can never stabilize to a spanning star on n ≥ 3.
func TestVerifyDetectsBrokenProtocol(t *testing.T) {
	t.Parallel()
	p := core.MustProtocol(
		"Broken-Star",
		[]string{"a"},
		0,
		nil,
		[]core.Rule{{A: 0, B: 0, Edge: false, OutA: 0, OutB: 0, OutEdge: true}},
	)
	s, err := Explore(p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Verify(func(cfg *core.Config) bool {
		return protocols.ActiveGraph(cfg).IsSpanningStar()
	})
	if rep.TargetStable != 0 {
		t.Fatalf("broken protocol has %d target-stable configurations", rep.TargetStable)
	}
}

// TestVerifyDetectsUnsoundDetector ensures DetectorSound rejects a
// detector that accepts transient configurations.
func TestVerifyDetectsUnsoundDetector(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	// "Any configuration with at least one active edge" is transient.
	bogus := core.Detector{
		Trigger: core.TriggerEffective,
		Stable:  func(cfg *core.Config) bool { return cfg.ActiveEdges() > 0 },
	}
	s, err := Explore(c.Proto, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.DetectorSound(bogus)
	if err == nil {
		t.Fatal("unsound detector not rejected")
	}
	if !strings.Contains(err.Error(), "output-unstable") {
		t.Fatalf("unexpected error: %v", err)
	}
}
