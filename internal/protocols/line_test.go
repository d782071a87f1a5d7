package protocols

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func lineConstructors() map[string]Constructor {
	return map[string]Constructor{
		"simple": SimpleGlobalLine(),
		"fast":   FastGlobalLine(),
		"faster": FasterGlobalLine(),
	}
}

// TestLineProtocolsSweep: every line protocol builds a spanning line
// across sizes and seeds.
func TestLineProtocolsSweep(t *testing.T) {
	t.Parallel()
	for name, c := range lineConstructors() {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{2, 3, 4, 5, 8, 13, 21} {
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("n=%d seed=%d: no convergence", n, seed)
					}
					if g := ActiveGraph(res.Final); !g.IsSpanningLine() {
						t.Fatalf("n=%d seed=%d: %v not a spanning line", n, seed, g)
					}
				}
			}
		})
	}
}

// TestLineProtocolsUnderAdversarialSchedulers: the stabilization
// theorems only assume fairness, so every fair scheduler must reach a
// spanning line.
func TestLineProtocolsUnderAdversarialSchedulers(t *testing.T) {
	t.Parallel()
	schedulers := func() []core.Scheduler {
		return []core.Scheduler{
			&core.RoundRobinScheduler{},
			&core.PermutationScheduler{},
			&core.BiasedScheduler{Cut: 4, Epsilon: 0.1},
		}
	}
	for name, c := range lineConstructors() {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, sched := range schedulers() {
				res, err := core.Run(c.Proto, 10, core.Options{
					Seed:      5,
					Detector:  c.Detector,
					Scheduler: sched,
					MaxSteps:  50_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("scheduler %s: no convergence", sched.Name())
				}
				if g := ActiveGraph(res.Final); !g.IsSpanningLine() {
					t.Fatalf("scheduler %s: %v not a spanning line", sched.Name(), g)
				}
			}
		})
	}
}

// lineInvariantObserver checks the Theorem 3 execution invariant after
// every effective step: the active graph is always a disjoint union of
// lines (and isolated nodes).
type lineInvariantObserver struct {
	t    *testing.T
	name string
}

func (o *lineInvariantObserver) Event(ev *core.Event) {
	if ev.Kind != core.EventStep || !ev.EdgeChanged {
		return
	}
	step, cfg := ev.Step, ev.Cfg
	g := ActiveGraph(cfg)
	for _, comp := range g.Components() {
		if len(comp) == 1 {
			continue
		}
		sub, _ := g.InducedSubgraph(comp)
		if !sub.IsSpanningLine() {
			o.t.Fatalf("%s step %d: component %v is not a line", o.name, step, comp)
		}
	}
}

func TestSimpleGlobalLineInvariant(t *testing.T) {
	t.Parallel()
	c := SimpleGlobalLine()
	for seed := uint64(1); seed <= 5; seed++ {
		obs := &lineInvariantObserver{t: t, name: "simple"}
		if _, err := core.Run(c.Proto, 12, core.Options{Seed: seed, Detector: c.Detector, Events: obs}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFastGlobalLineLeaderInvariant: every line component of Protocol
// 2 carries exactly one leader-ish state (l, l′ or l″) or exactly one
// sleeping head (f0/f1 lines have none awake).
func TestFastGlobalLineLeaderInvariant(t *testing.T) {
	t.Parallel()
	c := FastGlobalLine()
	leaderish := map[string]bool{"l": true, "l'": true, "l''": true}
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		if !edgeChanged {
			return
		}
		g := ActiveGraph(cfg)
		for _, comp := range g.Components() {
			if len(comp) == 1 {
				continue
			}
			leaders := 0
			for _, node := range comp {
				if leaderish[c.Proto.StateName(cfg.Node(node))] {
					leaders++
				}
			}
			if leaders > 1 {
				t.Fatalf("step %d: component %v has %d leaders", step, comp, leaders)
			}
		}
	})
	for seed := uint64(1); seed <= 5; seed++ {
		if _, err := core.Run(c.Proto, 12, core.Options{Seed: seed, Detector: c.Detector, Events: obs}); err != nil {
			t.Fatal(err)
		}
	}
}

// observerFunc is a core.EventSink that calls the function on every
// step event with the step, the pair, whether the edge flipped, and the
// live post-step configuration.
type observerFunc func(step int64, u, v int, edgeChanged bool, cfg *core.Config)

func (f observerFunc) Event(ev *core.Event) {
	if ev.Kind == core.EventStep {
		f(ev.Step, ev.U, ev.V, ev.EdgeChanged, ev.Cfg)
	}
}

// TestLineConvergenceDominatesLowerBound: Theorem 2 gives Ω(n²); the
// measured mean must clear a conservative fraction of n²/4 (the
// bottleneck transition alone costs ≥ n(n−1)/8 in expectation for the
// weakest case).
func TestLineConvergenceDominatesLowerBound(t *testing.T) {
	t.Parallel()
	c := FastGlobalLine()
	const n, trials = 24, 10
	var total float64
	for seed := uint64(1); seed <= trials; seed++ {
		res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: no convergence", seed)
		}
		total += float64(res.ConvergenceTime)
	}
	mean := total / trials
	if lb := float64(n*n) / 4; mean < lb {
		t.Fatalf("mean %f below the Ω(n²) sanity floor %f", mean, lb)
	}
}

func TestSpanningNetCoversEveryNode(t *testing.T) {
	t.Parallel()
	c := SpanningNet()
	for _, n := range []int{2, 5, 16, 33} {
		res, err := core.Run(c.Proto, n, core.Options{Seed: 9, Detector: c.Detector})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: no convergence", n)
		}
		if g := ActiveGraph(res.Final); !g.IsSpanning() {
			t.Fatalf("n=%d: %v has an uncovered node", n, g)
		}
	}
}

// TestFasterBeatsFastOnAverage reproduces the paper's Section 7
// claim at a fixed size with paired seeds.
func TestFasterBeatsFastOnAverage(t *testing.T) {
	t.Parallel()
	fast, faster := FastGlobalLine(), FasterGlobalLine()
	const n, trials = 32, 8
	var fastTotal, fasterTotal float64
	for seed := uint64(1); seed <= trials; seed++ {
		rf, err := core.Run(fast.Proto, n, core.Options{Seed: seed, Detector: fast.Detector})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := core.Run(faster.Proto, n, core.Options{Seed: seed, Detector: faster.Detector})
		if err != nil {
			t.Fatal(err)
		}
		fastTotal += float64(rf.ConvergenceTime)
		fasterTotal += float64(rr.ConvergenceTime)
	}
	if fasterTotal >= fastTotal {
		t.Fatalf("Faster-Global-Line (%f) did not beat Fast-Global-Line (%f) on average",
			fasterTotal/trials, fastTotal/trials)
	}
}

func TestLineStateCounts(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		c    Constructor
		want int
	}{
		{SimpleGlobalLine(), 5},
		{FastGlobalLine(), 9},
		{FasterGlobalLine(), 6},
		{SpanningNet(), 2},
	} {
		if got := tc.c.Proto.Size(); got != tc.want {
			t.Fatalf("%s: %d states, paper says %d", tc.c.Proto.Name(), got, tc.want)
		}
	}
}

func TestLineProtocolDeterminism(t *testing.T) {
	t.Parallel()
	c := SimpleGlobalLine()
	results := make([]core.Result, 2)
	for i := range results {
		res, err := core.Run(c.Proto, 15, core.Options{Seed: 77, Detector: c.Detector})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if results[0].ConvergenceTime != results[1].ConvergenceTime ||
		results[0].Final.String() != results[1].Final.String() {
		t.Fatal("identical seeds produced different executions")
	}
}

func ExampleSimpleGlobalLine() {
	c := SimpleGlobalLine()
	res, err := core.Run(c.Proto, 8, core.Options{Seed: 3, Detector: c.Detector})
	if err != nil {
		panic(err)
	}
	g := ActiveGraph(res.Final)
	fmt.Println("spanning line:", g.IsSpanningLine(), "edges:", g.M())
	// Output: spanning line: true edges: 7
}
