package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestReplayNoteNamesMeasuredEngine replays a traced trial the way
// netsim -trace does: under -engine auto the measured trial runs the
// batch engine's batched path, while the replay's NDJSON sink makes
// auto pick sparse. The note must name the measured trial's engine.
// The trial runs at n = 80: up to 64 nodes the bit-row index serves
// the run and batch steps exactly, so the replay would match it.
func TestReplayNoteNamesMeasuredEngine(t *testing.T) {
	points, err := campaign.Spec{
		Items:  []campaign.Item{{Name: "simple-global-line", Sizes: []int{80}}},
		Trials: 1,
		Seed:   1,
		Engine: "auto",
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pt := &points[0]
	var measured campaign.RunRecord
	if _, err := campaign.Execute(context.Background(), points, campaign.Options{
		Workers: 1,
		OnRun:   func(rec campaign.RunRecord) { measured = rec },
	}); err != nil {
		t.Fatal(err)
	}
	if measured.Engine != "batch" {
		t.Fatalf("measured trial ran %q; want auto to pick batch", measured.Engine)
	}
	proto, opts, err := pt.Trial(measured.Trial)
	if err != nil {
		t.Fatal(err)
	}
	opts.Events = trace.NewNDJSON(io.Discard)
	replay, err := core.Run(proto, pt.N, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Engine != core.EngineSparse {
		t.Fatalf("traced replay ran %s; want auto to pick sparse with a sink", replay.Engine)
	}
	note := replayNote(measured, replay)
	if !strings.Contains(note, "the batch engine's batched path") {
		t.Fatalf("note %q does not name the measured trial's batch engine", note)
	}
	replay.Steps = measured.Steps
	if note := replayNote(measured, replay); note != "" {
		t.Fatalf("a replay that matched the measured steps got note %q", note)
	}
}
