package netcons_test

// Telemetry-cost benchmarks for the structured event stream.
//
// BenchmarkObserverOff re-runs the alloc=workspace rows of
// BenchmarkCampaignThroughput with the telemetry plumbing compiled in
// but no sink attached — the configuration every campaign trial runs
// in. Comparing its trials/s against the matching BENCH_campaign.json
// rows bounds the cost of the nil-check instrumentation on the hot
// path (the budget is ≤2%).
//
// BenchmarkEventStream prices the stream when it is on: the same run
// with no sink, a bounded in-memory ring, and NDJSON encoding to
// io.Discard.
//
//	go test -bench 'BenchmarkObserverOff|BenchmarkEventStream' -benchtime 1000x -benchmem

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/trace"
)

func BenchmarkObserverOff(b *testing.B) {
	const trials = 32
	for _, n := range []int{512, 2048} {
		cc := protocols.CycleCover()
		points := []campaign.Point{{
			Protocol: "cycle-cover",
			N:        n,
			Trials:   trials,
			BaseSeed: 1,
			Proto:    cc.Proto,
			Detector: cc.Detector,
			// Same fixed budget as BenchmarkCampaignThroughput: the
			// trials stay in the setup-dominated steady state and the
			// deterministic cut keeps rows comparable.
			MaxSteps:           64,
			IncludeUnconverged: true,
			Metric:             campaign.MetricEffectiveSteps,
		}}
		b.Run(fmt.Sprintf("n=%d/alloc=workspace/events=off", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := campaign.Execute(context.Background(), points, campaign.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				// Budget exhaustion is the expected outcome here (the
				// fixed 64-step cut); only execution errors are failures.
				if agg := out.Aggregates[0]; agg.Trials != trials {
					b.Fatalf("ran %d trials, want %d: %+v", agg.Trials, trials, agg)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

func BenchmarkEventStream(b *testing.B) {
	c := protocols.SimpleGlobalLine()
	ws := core.NewWorkspace()
	run := func(b *testing.B, events core.EventSink) core.Result {
		res, err := core.Run(c.Proto, 128, core.Options{
			Seed:      1,
			Engine:    core.EngineSparse,
			Detector:  c.Detector,
			Workspace: ws,
			Events:    events,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("sink=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("sink=ring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, trace.NewRing(1024))
		}
	})
	b.Run("sink=ndjson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, trace.NewNDJSON(io.Discard))
		}
	})
}
