package protocols

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// detectorVerdict keeps the benchmarked calls from being optimized away.
var detectorVerdict bool

// BenchmarkDetectorStable prices one Stable call of every registry
// detector, the per-layer cost a TriggerEffective detector adds to each
// effective step. Each protocol runs once on the sparse engine to
// convergence; the state=stable row evaluates the final configuration
// (the predicate's full, accepting path) and the state=near row the
// configuration just before the detecting step (the last one it
// rejected). Run it through `scripts/bench.sh detector`.
func BenchmarkDetectorStable(b *testing.B) {
	for _, name := range Names() {
		cons, _ := Lookup(name)
		for _, n := range []int{12, 24} {
			opts := core.Options{Seed: 1, Engine: core.EngineSparse, Detector: cons.Detector}
			if cons.Initial != nil {
				initial, err := cons.Initial(n)
				if err != nil {
					b.Fatal(err)
				}
				opts.Initial = initial
			}
			res, err := core.Run(cons.Proto, n, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatalf("%s n=%d: no convergence", name, n)
			}
			states := []struct {
				label string
				cfg   *core.Config
			}{{"stable", res.Final}}
			if res.Steps > 0 {
				opts.MaxSteps = res.Steps - 1
				near, err := core.Run(cons.Proto, n, opts)
				if err != nil {
					b.Fatal(err)
				}
				states = append(states, struct {
					label string
					cfg   *core.Config
				}{"near", near.Final})
			}
			for _, s := range states {
				cfg, stable := s.cfg, cons.Detector.Stable
				b.Run(fmt.Sprintf("%s/n=%d/state=%s", name, n, s.label), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						detectorVerdict = stable(cfg)
					}
				})
			}
		}
	}
}
