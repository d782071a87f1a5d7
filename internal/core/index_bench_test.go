package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/processes"
	"repro/internal/protocols"
)

// BenchmarkIndex prices the two enabled-pair indexes in ns per landing:
// the bit-row index Run picks up to 64 nodes and the state-class census
// it picks above, each at n ∈ {16, 32, 64} (the census through a
// census-only workspace) and the census alone at n = 128. The subjects
// are 3rc and 3-cliques to a fixed step budget, and Edge-Cover to its
// last edge. Every row runs the sparse engine under a never-firing
// interval detector, so it prices the indexed loop and its index, not a
// protocol's stability predicate. An op runs trials on the row's
// workspace, each with the next seed, until it has resolved at least
// opLandings landings, so every op weighs about the same whatever the
// subject. The rows behind the 64-node cut are committed in
// BENCH_index.json:
//
//	./scripts/bench.sh index
func BenchmarkIndex(b *testing.B) {
	const opLandings = 100_000
	never := core.Detector{Trigger: core.TriggerInterval, Stable: func(*core.Config) bool { return false }}
	rc, err := protocols.Lookup("3rc")
	if err != nil {
		b.Fatal(err)
	}
	cliques, err := protocols.Lookup("3-cliques")
	if err != nil {
		b.Fatal(err)
	}
	subjects := []struct {
		name   string
		proto  *core.Protocol
		budget int64
	}{
		{"3rc", rc.Proto, 2_000_000},
		{"3-cliques", cliques.Proto, 2_000_000},
		{"Edge-Cover", processes.EdgeCover().Proto, 1 << 40},
	}
	for _, s := range subjects {
		for _, n := range []int{16, 32, 64, 128} {
			for _, index := range []string{"bits", "census"} {
				if index == "bits" && n > 64 {
					continue
				}
				s, n, index := s, n, index
				b.Run(fmt.Sprintf("protocol=%s/n=%d/index=%s", s.name, n, index), func(b *testing.B) {
					ws := core.NewWorkspace()
					if index == "census" {
						ws = core.NewCensusWorkspace()
					}
					var landings, trials int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for target := landings + opLandings; landings < target; {
							trials++
							res, err := core.Run(s.proto, n, core.Options{
								Seed: uint64(trials), Engine: core.EngineSparse, Detector: never,
								MaxSteps: s.budget, Workspace: ws,
							})
							if err != nil {
								b.Fatal(err)
							}
							landings += res.Metrics.Landings
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(landings), "ns/landing")
					b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
				})
			}
		}
	}
}
