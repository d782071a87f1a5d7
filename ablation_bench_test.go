package netcons_test

// Ablation benchmarks for the simulator's and the paper's main design
// choices:
//
//   - BenchmarkAblationScheduler — convergence under the uniform
//     scheduler vs the permutation and round-robin fair schedulers
//     (the paper's analysis assumes uniformity; these quantify how
//     much the schedule regime matters);
//   - BenchmarkAblationDetection — detector-trigger cost: per-
//     effective-step predicates vs interval quiescence scans (the
//     engine's central detection design choice);
//   - BenchmarkAblationMergeVsSteal — Simple-Global-Line's merging
//     against Fast-Global-Line's node stealing at equal sizes, the
//     paper's own Section 4 design discussion;
//   - BenchmarkGeometric — the Section 7 geometric variant
//     (square self-assembly), measuring interactions to completion.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geometric"
	"repro/internal/protocols"
)

func BenchmarkAblationScheduler(b *testing.B) {
	c := protocols.GlobalStar()
	const n = 48
	schedulers := map[string]func() core.Scheduler{
		"uniform":     func() core.Scheduler { return core.UniformScheduler{} },
		"permutation": func() core.Scheduler { return &core.PermutationScheduler{} },
		"round-robin": func() core.Scheduler { return &core.RoundRobinScheduler{} },
	}
	for name, mk := range schedulers {
		name, mk := name, mk
		b.Run(name, func(b *testing.B) {
			reportRun(b, func(seed uint64) float64 {
				res, err := core.Run(c.Proto, n, core.Options{
					Seed:      seed,
					Detector:  c.Detector,
					Scheduler: mk(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("no convergence")
				}
				return float64(res.ConvergenceTime)
			})
		})
	}
}

func BenchmarkAblationDetection(b *testing.B) {
	c := protocols.CycleCover()
	const n = 64
	detectors := map[string]core.Detector{
		"predicate-per-step": c.Detector,
		"quiescence-scan":    core.QuiescenceDetector(),
	}
	for name, det := range detectors {
		name, det := name, det
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(c.Proto, n, core.Options{Seed: uint64(i) + 1, Detector: det})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

func BenchmarkAblationMergeVsSteal(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    protocols.Constructor
	}{
		{"merge(simple)", protocols.SimpleGlobalLine()},
		{"steal(fast)", protocols.FastGlobalLine()},
	} {
		tc := tc
		for _, n := range []int{12, 20} {
			n := n
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				reportRun(b, func(seed uint64) float64 {
					res, err := core.Run(tc.c.Proto, n, core.Options{Seed: seed, Detector: tc.c.Detector})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatal("no convergence")
					}
					return float64(res.ConvergenceTime)
				})
			})
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	for _, s := range []int{3, 4, 5} {
		s := s
		b.Run(fmt.Sprintf("square/s=%d", s), func(b *testing.B) {
			reportRun(b, func(seed uint64) float64 {
				res, err := geometric.BuildRectangle(s, s, s*s+s, seed, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("no convergence")
				}
				return float64(res.Steps)
			})
		})
	}
}
