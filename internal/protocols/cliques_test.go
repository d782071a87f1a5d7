package protocols

import (
	"testing"

	"repro/internal/core"
)

func TestCCliquesParameterValidation(t *testing.T) {
	t.Parallel()
	if _, err := CCliques(1); err == nil {
		t.Fatal("c=1 accepted")
	}
	if _, err := CCliques(60); err == nil {
		t.Fatal("state-budget overflow accepted")
	}
}

func TestCCliquesStateCount(t *testing.T) {
	t.Parallel()
	for c := 2; c <= 6; c++ {
		cons, err := CCliques(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cons.Proto.Size(), 5*c-3; got != want {
			t.Fatalf("c=%d: %d states, paper says %d", c, got, want)
		}
	}
}

func TestCCliquesBuildsPartitions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		c, n int
	}{
		{2, 6}, {2, 7}, // matching pairs, odd leftover
		{3, 6}, {3, 9}, {3, 10}, {3, 11}, // every residue mod 3
		{4, 8}, {4, 9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(rune('0'+tc.c))+"-"+string(rune('0'+tc.n%10)), func(t *testing.T) {
			t.Parallel()
			cons, err := CCliques(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(cons.Proto, tc.n, core.Options{Seed: 2, Detector: cons.Detector})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("c=%d n=%d: no convergence", tc.c, tc.n)
			}
			g := ActiveGraph(res.Final)
			cliques := 0
			for _, comp := range g.Components() {
				if len(comp) == tc.c {
					sub, _ := g.InducedSubgraph(comp)
					if sub.M() != tc.c*(tc.c-1)/2 {
						t.Fatalf("component %v is not K%d", comp, tc.c)
					}
					cliques++
				}
			}
			if cliques != tc.n/tc.c {
				t.Fatalf("c=%d n=%d: %d cliques, want %d", tc.c, tc.n, cliques, tc.n/tc.c)
			}
		})
	}
}

// TestCCliquesCounterTracksDegree: a numbered follower's counter
// always equals its active degree — the invariant that makes wrong-
// connection repair sound.
func TestCCliquesCounterTracksDegree(t *testing.T) {
	t.Parallel()
	cons, err := CCliques(3)
	if err != nil {
		t.Fatal(err)
	}
	numbered := map[string]int{"1": 1, "2": 2}
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		for _, node := range []int{u, v} {
			name := cons.Proto.StateName(cfg.Node(node))
			if want, ok := numbered[name]; ok {
				if got := cfg.Degree(node); got != want {
					t.Fatalf("step %d: follower in state %s has degree %d", step, name, got)
				}
			}
		}
	})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := core.Run(cons.Proto, 9, core.Options{Seed: seed, Detector: cons.Detector, Events: obs}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCCliquesPairsIsMatching(t *testing.T) {
	t.Parallel()
	// c=2 degenerates to a perfect matching with leader visits.
	cons, err := CCliques(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cons.Proto, 10, core.Options{Seed: 7, Detector: cons.Detector})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if g := ActiveGraph(res.Final); !g.IsMaximumMatching() {
		t.Fatalf("c=2 result %v is not a maximum matching", g)
	}
}
