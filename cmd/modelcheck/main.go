// Command modelcheck exhaustively verifies a protocol's stabilization
// claim on a small population: it explores every reachable
// configuration (all fair-scheduler interleavings and probabilistic
// branches) and reports whether every fair execution stabilizes to the
// protocol's target network.
//
// Usage:
//
//	modelcheck -protocol global-star -n 5
//	modelcheck -protocol simple-global-line -n 4 -max 5000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name       = flag.String("protocol", "global-star", "protocol name (see campaign -list)")
		n          = flag.Int("n", 4, "population size (keep small: the space is exponential)")
		maxConfigs = flag.Int("max", 2_000_000, "abort beyond this many reachable configurations")
	)
	flag.Parse()

	c, err := protocols.Lookup(*name)
	if err != nil {
		return err
	}
	target, err := targetPredicate(*name)
	if err != nil {
		return err
	}

	fmt.Printf("exploring %s on n=%d …\n", c.Proto.Name(), *n)
	space, err := check.Explore(c.Proto, *n, check.Options{MaxConfigs: *maxConfigs})
	if err != nil {
		return err
	}
	rep := space.Verify(target)
	fmt.Printf("reachable configurations: %d\n", rep.Reachable)
	fmt.Printf("output-stable:            %d\n", rep.OutputStable)
	fmt.Printf("target-stable:            %d\n", rep.TargetStable)
	if rep.TargetStable == 0 {
		return errors.New("no reachable target-stable configuration: the protocol cannot construct its target at this size")
	}
	if !rep.AllReachTarget {
		return fmt.Errorf("VERIFICATION FAILED: configuration %s cannot reach the target", rep.Counterexample)
	}
	fmt.Println("verified: every fair execution stabilizes to the target ✓")

	accepted, err := space.DetectorSound(c.Detector)
	if err != nil {
		return fmt.Errorf("detector soundness: %w", err)
	}
	fmt.Printf("detector sound: accepts %d configurations, all output-stable ✓\n", accepted)
	return nil
}

// targetPredicate maps registry names to the target network predicate
// their theorems claim.
func targetPredicate(name string) (func(cfg *core.Config) bool, error) {
	active := func(pred func(*graph.Graph) bool) func(cfg *core.Config) bool {
		return func(cfg *core.Config) bool { return pred(protocols.ActiveGraph(cfg)) }
	}
	switch name {
	case "simple-global-line", "fast-global-line", "faster-global-line":
		return active(func(g *graph.Graph) bool { return g.IsSpanningLine() }), nil
	case "spanning-net":
		return active(func(g *graph.Graph) bool { return g.IsSpanning() }), nil
	case "cycle-cover":
		return active(func(g *graph.Graph) bool { return g.IsCycleCoverWithWaste(2) }), nil
	case "global-star":
		return active(func(g *graph.Graph) bool { return g.IsSpanningStar() }), nil
	case "global-ring", "2rc":
		return active(func(g *graph.Graph) bool { return g.IsSpanningRing() }), nil
	case "3rc":
		return active(func(g *graph.Graph) bool { return g.IsNearKRegularConnected(3) }), nil
	case "3-cliques":
		return active(func(g *graph.Graph) bool { return g.IsCliquePartition(3) }), nil
	default:
		return nil, fmt.Errorf("no target predicate registered for %q", name)
	}
}
