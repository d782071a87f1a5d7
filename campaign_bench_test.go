package netcons_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/protocols"
)

// BenchmarkCampaignThroughput measures the zero-allocation trial
// pipeline: the same trials run through core.Run with no workspace
// (alloc=fresh: every trial allocates and builds its configuration,
// census index and RNG from scratch) and through campaign.Execute,
// whose worker reuses one workspace for every trial (alloc=workspace).
// The workload is the setup-dominated regime the workspaces target —
// many short trials of a large point, where the geometric-skip engines
// make the simulation itself nearly free and per-trial setup is the
// bill — so the ratio between the two rows is the pipeline win. The
// per-trial values are asserted equal across the two modes (the
// workspace contract). Run with -benchmem to see the allocation
// collapse:
//
//	go test -bench BenchmarkCampaignThroughput -benchtime 1000x -benchmem
func BenchmarkCampaignThroughput(b *testing.B) {
	const trials = 32
	for _, n := range []int{512, 2048} {
		points := func() []campaign.Point {
			cc := protocols.CycleCover()
			return []campaign.Point{{
				Protocol: "cycle-cover",
				N:        n,
				Trials:   trials,
				BaseSeed: 1,
				Proto:    cc.Proto,
				Detector: cc.Detector,
				// A short fixed budget keeps the trials in the
				// setup-dominated steady state; budget exhaustion is a
				// deterministic cut, so the measured values stay
				// comparable across modes.
				MaxSteps:           64,
				IncludeUnconverged: true,
				Metric:             campaign.MetricEffectiveSteps,
			}}
		}
		var fresh, reused []float64
		b.Run(fmt.Sprintf("n=%d/alloc=fresh", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := &points()[0]
				values := make([]float64, trials)
				for t := range values {
					_, value, err := runTrialDirect(pt, t)
					if err != nil {
						b.Fatal(err)
					}
					values[t] = value
				}
				fresh = values
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
		b.Run(fmt.Sprintf("n=%d/alloc=workspace", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				values := make([]float64, trials)
				_, err := campaign.Execute(context.Background(), points(), campaign.Options{
					Workers: 1, // per-trial cost, undiluted by parallelism
					OnRun:   func(rec campaign.RunRecord) { values[rec.Trial] = rec.Value },
				})
				if err != nil {
					b.Fatal(err)
				}
				reused = values
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
		if fresh != nil && reused != nil && !reflect.DeepEqual(fresh, reused) {
			b.Fatalf("workspace reuse changed the per-trial values at n=%d:\n%v\nvs\n%v", n, fresh, reused)
		}
	}
}
