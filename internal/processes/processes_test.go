package processes

import (
	"testing"

	"repro/internal/core"
)

// measure runs a process `trials` times and returns the mean detection
// step.
func measure(t *testing.T, proc Process, n, trials int) float64 {
	t.Helper()
	needsOneA := proc.Proto.Name() == "One-Way-Epidemic" || proc.Proto.Name() == "Meet-Everybody"
	var total float64
	for seed := 1; seed <= trials; seed++ {
		opts := core.Options{Seed: uint64(seed), Detector: proc.Detector}
		if needsOneA {
			initial, err := InitialWithOneA(proc.Proto, n)
			if err != nil {
				t.Fatal(err)
			}
			opts.Initial = initial
		}
		res, err := core.Run(proc.Proto, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s n=%d seed=%d: no convergence", proc.Proto.Name(), n, seed)
		}
		total += float64(res.Steps)
	}
	return total / float64(trials)
}

// TestMeasuredMatchesAnalytic validates Propositions 1–7: the measured
// mean convergence time must lie within a tolerance band of the
// analytic expectation. Tolerances reflect each process's variance
// (the geometric tail of "the last two nodes must meet" dominates the
// eliminations).
func TestMeasuredMatchesAnalytic(t *testing.T) {
	t.Parallel()
	const n = 48
	cases := []struct {
		proc      Process
		trials    int
		tolerance float64
	}{
		{OneWayEpidemic(), 60, 0.20},
		{OneToOneElimination(), 120, 0.25},
		{MaximumMatching(), 120, 0.25},
		{OneToAllElimination(), 60, 0.20},
		{MeetEverybody(), 40, 0.20},
		{NodeCover(), 60, 0.25},
		{EdgeCover(), 30, 0.15},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.proc.Proto.Name(), func(t *testing.T) {
			t.Parallel()
			mean := measure(t, tc.proc, n, tc.trials)
			want := tc.proc.Expected(n)
			ratio := mean / want
			if ratio < 1-tc.tolerance || ratio > 1+tc.tolerance {
				t.Fatalf("measured %f vs analytic %f (ratio %.3f beyond ±%.0f%%)",
					mean, want, ratio, 100*tc.tolerance)
			}
		})
	}
}

// TestExpectedFormulaSanity spot-checks the closed forms against
// hand-computed tiny cases.
func TestExpectedFormulaSanity(t *testing.T) {
	t.Parallel()
	// One-way epidemic on n=2: the only pair converts in 1 step.
	if got := OneWayEpidemic().Expected(2); got != 1 {
		t.Fatalf("epidemic E[X] for n=2 = %f, want 1", got)
	}
	// One-to-one elimination on n=2: the pair must meet once.
	if got := OneToOneElimination().Expected(2); got != 1 {
		t.Fatalf("elimination E[X] for n=2 = %f, want 1", got)
	}
	// Edge cover on n=2: one edge, activated on the first step.
	if got := EdgeCover().Expected(2); got != 1 {
		t.Fatalf("edge cover E[X] for n=2 = %f, want 1", got)
	}
	// Maximum matching on n=4: 1/p0 + 1/p1 = 12/12·... p0 = 12/12 = 1
	// with 4 choose 2 = 6 pairs all a–a: p0 = 1, p1 = 1/6 → E = 7.
	if got := MaximumMatching().Expected(4); got != 7 {
		t.Fatalf("matching E[X] for n=4 = %f, want 7", got)
	}
}

// TestExpectedMonotone: every closed form is increasing in n.
func TestExpectedMonotone(t *testing.T) {
	t.Parallel()
	for _, proc := range All() {
		prev := 0.0
		for n := 2; n <= 64; n *= 2 {
			cur := proc.Expected(n)
			if cur <= prev {
				t.Fatalf("%s: E[X] not increasing at n=%d (%f ≤ %f)", proc.Proto.Name(), n, cur, prev)
			}
			prev = cur
		}
	}
}

// TestThetaMetadata: the declared Θ-classes and exponents match the
// paper's Table 1.
func TestThetaMetadata(t *testing.T) {
	t.Parallel()
	want := map[string]struct {
		theta    string
		exponent float64
	}{
		"One-Way-Epidemic":       {"Θ(n log n)", 1},
		"One-To-One-Elimination": {"Θ(n²)", 2},
		"Maximum-Matching":       {"Θ(n²)", 2},
		"One-To-All-Elimination": {"Θ(n log n)", 1},
		"Meet-Everybody":         {"Θ(n² log n)", 2},
		"Node-Cover":             {"Θ(n log n)", 1},
		"Edge-Cover":             {"Θ(n² log n)", 2},
	}
	procs := All()
	if len(procs) != len(want) {
		t.Fatalf("%d processes, want %d", len(procs), len(want))
	}
	for _, proc := range procs {
		w, ok := want[proc.Proto.Name()]
		if !ok {
			t.Fatalf("unexpected process %q", proc.Proto.Name())
		}
		if proc.Theta != w.theta || proc.Exponent != w.exponent {
			t.Fatalf("%s: Θ=%q exp=%f, want %q/%f",
				proc.Proto.Name(), proc.Theta, proc.Exponent, w.theta, w.exponent)
		}
	}
}

// TestEpidemicSpreadsMonotonically: the infected count never
// decreases.
func TestEpidemicSpreadsMonotonically(t *testing.T) {
	t.Parallel()
	proc := OneWayEpidemic()
	a, _ := proc.Proto.StateIndex("a")
	last := 0
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		cur := cfg.Count(a)
		if cur < last {
			t.Fatalf("step %d: infected count dropped %d → %d", step, last, cur)
		}
		last = cur
	})
	initial, err := InitialWithOneA(proc.Proto, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(proc.Proto, 30, core.Options{Seed: 3, Detector: proc.Detector, Initial: initial, Events: obs}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchingIsMatching: the final active graph of the matching
// process is a maximum matching.
func TestMatchingIsMatching(t *testing.T) {
	t.Parallel()
	proc := MaximumMatching()
	for _, n := range []int{2, 5, 10, 17} {
		res, err := core.Run(proc.Proto, n, core.Options{Seed: 2, Detector: proc.Detector})
		if err != nil {
			t.Fatal(err)
		}
		edges := 0
		for u := 0; u < n; u++ {
			if d := res.Final.Degree(u); d > 1 {
				t.Fatalf("n=%d: node %d has matching degree %d", n, u, d)
			} else if d == 1 {
				edges++
			}
		}
		if edges/2 != n/2 {
			t.Fatalf("n=%d: %d matched pairs, want %d", n, edges/2, n/2)
		}
	}
}

// TestEdgeCoverActivatesAll: the edge cover ends with the complete
// graph active.
func TestEdgeCoverActivatesAll(t *testing.T) {
	t.Parallel()
	proc := EdgeCover()
	const n = 12
	res, err := core.Run(proc.Proto, n, core.Options{Seed: 1, Detector: proc.Detector})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final.ActiveEdges(); got != n*(n-1)/2 {
		t.Fatalf("%d active edges, want %d", got, n*(n-1)/2)
	}
}

func TestInitialWithOneAValidation(t *testing.T) {
	t.Parallel()
	bad := core.MustProtocol("bad", []string{"x"}, 0, nil, nil)
	if _, err := InitialWithOneA(bad, 4); err == nil {
		t.Fatal("protocol without state a accepted")
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
