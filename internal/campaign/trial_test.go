package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

func panicMetric(core.Result, int) float64 { panic("metric exploded") }

// TestPanicIsolation is the pool-survival acceptance: a point whose
// every trial panics becomes failed records — counted, labelled, and
// streamed like any others — while the healthy point beside it
// completes and Execute returns no error.
func TestPanicIsolation(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	points := []Point{
		{Protocol: "cycle-cover", N: 12, Trials: 4, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector},
		{Protocol: "cycle-cover", N: 14, Trials: 4, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, Metric: panicMetric},
	}
	out, err := Execute(context.Background(), points, Options{Workers: 2, KeepRuns: true})
	if err != nil {
		t.Fatalf("recovered panics must not abort the campaign: %v", err)
	}
	healthy, broken := out.Aggregates[0], out.Aggregates[1]
	if healthy.Converged != 4 || healthy.Failures != 0 || healthy.Panics != 0 {
		t.Fatalf("healthy point disturbed: %+v", healthy)
	}
	if broken.Failures != 4 || broken.Panics != 4 || broken.Converged != 0 {
		t.Fatalf("panicking point misaggregated: %+v", broken)
	}
	for _, rec := range out.Runs {
		if rec.Point != 1 {
			continue
		}
		if !rec.Panicked || !strings.Contains(rec.Err, "panic: metric exploded") {
			t.Fatalf("panicking trial recorded as %+v", rec)
		}
	}
}

// TestPanicReplacesWorkspace pins the poisoning contract: a panicking
// attempt swaps a fresh workspace into the worker's slot, and a
// healthy follow-up run on that slot works and keeps it.
func TestPanicReplacesWorkspace(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	pt := Point{Protocol: "cycle-cover", N: 12, Trials: 2, BaseSeed: 1,
		Proto: cc.Proto, Detector: cc.Detector, Metric: panicMetric}

	ws := core.NewWorkspace()
	poisoned := ws
	rec := runTrial(context.Background(), &pt, 0, 0, &ws)
	if !rec.Panicked {
		t.Fatalf("record %+v, want panicked", rec)
	}
	if ws == nil || ws == poisoned {
		t.Fatal("poisoned workspace was not replaced")
	}

	pt.Metric = nil
	kept := ws
	rec = runTrial(context.Background(), &pt, 0, 1, &ws)
	if !rec.Converged || rec.Err != "" {
		t.Fatalf("healthy run on replaced workspace: %+v", rec)
	}
	if ws != kept {
		t.Fatal("healthy run replaced its workspace")
	}
}
