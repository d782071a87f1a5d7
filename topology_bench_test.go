package netcons_test

// BenchmarkTopologyOverhead tracks the cost of the interaction-topology
// layer on Cycle-Cover, the edge-building workload whose convergence is
// insensitive to connectivity (it quiesces on any permitted-pair
// graph):
//
// All rows run under the generic quiescence detector (the registry
// detector encodes complete-graph stable configurations, which a
// restricted graph never reaches):
//
//   - topology=complete rows run with a nil *core.Topology — the exact
//     pre-topology code path (a complete spec builds to nil), so this
//     row's trajectory is the acceptance gate: it must stay within 2%
//     of its pre-refactor wall-clock;
//   - topology=gnp and topology=rgg rows run the same workload on a
//     G(n,p) and a random-geometric instance at expected degree 8
//     (p = 8/(n−1), r = √(8/(π(n−1)))), realized outside the timer, so
//     the rows price the restricted scheduler/index paths themselves;
//   - every row reports steps/op, effective/op, permitted pairs/op and
//     live-heap-bytes (see liveHeapBytes).
//
// Run it with:
//
//	go test -run '^$' -bench BenchmarkTopologyOverhead -benchtime 1x -benchmem
//
// CI runs exactly that and uploads the test2json stream as
// BENCH_topology.json.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

func BenchmarkTopologyOverhead(b *testing.B) {
	const degree = 8.0
	for _, n := range []int{1024, 4096, 16384} {
		n := n
		specs := []struct {
			label string
			spec  *core.TopologySpec
		}{
			{"complete", nil},
			{"gnp", &core.TopologySpec{Kind: core.TopoGnp, Param: degree / float64(n-1)}},
			{"rgg", &core.TopologySpec{Kind: core.TopoRGG, Param: math.Sqrt(degree / (math.Pi * float64(n-1)))}},
		}
		for _, tc := range specs {
			tc := tc
			b.Run(fmt.Sprintf("Cycle-Cover/n=%d/topology=%s", n, tc.label), func(b *testing.B) {
				c := protocols.CycleCover()
				var steps, effective, pairs int64
				var liveHeap float64
				for i := 0; i < b.N; i++ {
					// Realize the per-iteration topology instance and collect
					// prior garbage outside the timer: the rows price the
					// engines' restricted paths, not graph generation or GC.
					b.StopTimer()
					runtime.GC()
					topo, err := tc.spec.Realize(n, uint64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					ws := core.NewWorkspace()
					b.StartTimer()
					res, err := core.Run(c.Proto, n, core.Options{
						Seed: uint64(i) + 1, Engine: core.EngineSparse,
						Detector: core.QuiescenceDetector(), Topology: topo,
						Workspace: ws,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					liveHeap = max(liveHeap, liveHeapBytes(ws))
					b.StartTimer()
					if !res.Converged {
						b.Fatalf("n=%d topology=%s seed=%d did not converge", n, tc.label, uint64(i)+1)
					}
					steps += res.Steps
					effective += res.EffectiveSteps
					if topo != nil {
						pairs += int64(topo.PairCount())
					} else {
						pairs += int64(n) * int64(n-1) / 2
					}
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(effective)/float64(b.N), "effective/op")
				b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
				b.ReportMetric(liveHeap, "live-heap-bytes")
			})
		}
	}
}
