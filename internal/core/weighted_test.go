package core

import "testing"

// TestWeightedSchedulerBias: hot nodes must be drawn far more often
// than cold ones, and every node must keep positive probability
// (fairness).
func TestWeightedSchedulerBias(t *testing.T) {
	t.Parallel()
	const n = 16
	s := &WeightedScheduler{HotFraction: 0.25, Boost: 8}
	cfg := NewConfig(MustProtocol("w", []string{"a"}, 0, nil, nil), n)
	rng := NewRNG(1)
	hits := make([]int, n)
	const draws = 40000
	for i := 0; i < draws; i++ {
		u, v := s.Next(cfg, rng)
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("bad pair (%d, %d)", u, v)
		}
		hits[u]++
		hits[v]++
	}
	hot, cold := 0, 0
	for u, h := range hits {
		if h == 0 {
			t.Fatalf("node %d starved over %d draws", u, draws)
		}
		if u < n/4 {
			hot += h
		} else {
			cold += h
		}
	}
	// 4 hot nodes at 8× vs 12 cold at 1×: hot mass 32/44 ≈ 73% of
	// endpoint draws; allow a wide statistical band.
	frac := float64(hot) / float64(hot+cold)
	if frac < 0.6 || frac > 0.85 {
		t.Fatalf("hot endpoint fraction %.3f outside [0.6, 0.85]", frac)
	}
	if s.Name() != "weighted" {
		t.Fatalf("name %q", s.Name())
	}
}

// TestWeightedSchedulerEngineSelection: the weighted schedule is not
// uniform, so EngineAuto must fall back to the baseline loop and the
// indexed engines must refuse it.
func TestWeightedSchedulerEngineSelection(t *testing.T) {
	t.Parallel()
	p := MustProtocol("cover", []string{"a", "b"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
		{A: 0, B: 1, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	res, err := Run(p, 24, Options{Seed: 1, Scheduler: &WeightedScheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Engine != EngineBaseline {
		t.Fatalf("weighted run: %+v, want converged on the baseline engine", res)
	}
	for _, engine := range []Engine{EngineSparse, EngineBatch} {
		if _, err := Run(p, 24, Options{Seed: 1, Scheduler: &WeightedScheduler{}, Engine: engine}); err == nil {
			t.Fatalf("engine %s accepted a non-uniform scheduler", engine)
		}
	}
}
