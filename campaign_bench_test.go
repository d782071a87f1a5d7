package netcons_test

// BenchmarkCampaign measures the campaign runner's parallel speedup:
// the same 64-run sweep (Cycle-Cover, the paper's time-optimal Θ(n²)
// constructor, at n=96) executed at workers=1 — the old sequential
// trial-loop semantics — and at workers=GOMAXPROCS. The aggregates are
// asserted bit-identical across the two, so the comparison is purely
// about wall clock:
//
//	go test -bench BenchmarkCampaign -benchtime 3x

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/protocols"
)

func campaignSweep() []campaign.Point {
	cc := protocols.CycleCover()
	return []campaign.Point{{
		Protocol: "cycle-cover",
		N:        96,
		Trials:   64,
		BaseSeed: 1,
		Proto:    cc.Proto,
		Detector: cc.Detector,
		Metric:   campaign.MetricConvergenceTime,
	}}
}

func BenchmarkCampaign(b *testing.B) {
	var serial, parallel []campaign.Aggregate
	for _, tc := range []struct {
		name    string
		workers int
		sink    *[]campaign.Aggregate
	}{
		{"serial/workers=1", 1, &serial},
		{fmt.Sprintf("parallel/workers=%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0), &parallel},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := campaign.Execute(context.Background(), campaignSweep(), campaign.Options{
					Workers: tc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if out.Aggregates[0].Failures > 0 {
					b.Fatalf("failures: %+v", out.Aggregates[0])
				}
				*tc.sink = out.Aggregates
			}
		})
	}
	if serial != nil && parallel != nil && !reflect.DeepEqual(serial, parallel) {
		b.Fatalf("worker count changed the aggregates:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// BenchmarkCampaignThroughput measures the zero-allocation trial
// pipeline: the same sweep executed with per-worker reusable
// workspaces (the default) and with Options.FreshAlloc (every trial
// allocates and rebuilds its Θ(n²) index and edge store from scratch).
// The workload is the setup-dominated regime the workspaces target —
// many short trials of a large point, where the geometric-skip engines
// make the simulation itself nearly free and per-trial setup is the
// bill — so the ratio between the alloc=fresh and alloc=workspace rows
// is the pipeline win. Aggregates are asserted bit-identical across
// the two modes (the workspace contract). Run with -benchmem to see
// the allocation collapse:
//
//	go test -bench BenchmarkCampaignThroughput -benchtime 3x -benchmem
type campaignThroughputMode struct {
	name  string
	fresh bool
}

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
		byMode := map[string][]campaign.Aggregate{}
		for _, mode := range []campaignThroughputMode{{"fresh", true}, {"workspace", false}} {
			mode := mode
			b.Run(fmt.Sprintf("n=%d/alloc=%s", n, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := campaign.Execute(context.Background(), points(), campaign.Options{
						Workers:    1, // per-trial cost, undiluted by parallelism
						FreshAlloc: mode.fresh,
					})
					if err != nil {
						b.Fatal(err)
					}
					byMode[mode.name] = out.Aggregates
				}
				b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
			})
		}
		if f, w := byMode["fresh"], byMode["workspace"]; f != nil && w != nil && !reflect.DeepEqual(f, w) {
			b.Fatalf("workspace reuse changed the aggregates at n=%d:\n%+v\nvs\n%+v", n, f, w)
		}
	}
}
