package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

func TestRecorderCapturesRun(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	rec := NewRecorder(64)
	if _, err := core.Run(c.Proto, 20, core.Options{Seed: 1, Detector: c.Detector, Events: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() < 3 {
		t.Fatalf("only %d snapshots", rec.Len())
	}
	shots := rec.Select([]float64{0, 0.5, 1})
	if len(shots) != 3 {
		t.Fatalf("selected %d", len(shots))
	}
	if shots[0].Step > shots[2].Step {
		t.Fatal("snapshots out of order")
	}
	if !shots[2].Graph.IsSpanningStar() {
		t.Fatalf("final snapshot %v is not the stable star", shots[2].Graph)
	}
	if len(shots[0].Labels) != 20 {
		t.Fatalf("labels %v", shots[0].Labels)
	}
}

// TestRecorderOnEventStream pins the Recorder on the sparse engine, whose
// stream interleaves skip batches with the step events: the run-end
// event must record the terminal configuration at the run's last step.
func TestRecorderOnEventStream(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	rec := NewRecorder(64)
	res, err := core.Run(c.Proto, 20, core.Options{Seed: 1, Engine: core.EngineSparse, Detector: c.Detector, Events: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if rec.Len() < 3 {
		t.Fatalf("only %d snapshots", rec.Len())
	}
	shots := rec.Select([]float64{0, 1})
	if !shots[1].Graph.IsSpanningStar() {
		t.Fatalf("final snapshot %v is not the stable star", shots[1].Graph)
	}
	if shots[1].Step != res.Steps {
		t.Fatalf("final snapshot at step %d, run ended at %d", shots[1].Step, res.Steps)
	}
}

// TestRecorderLimitFloor pins the documented minimum: limits below 8
// are clamped rather than honored, so thinning always has room to keep
// a usable run outline.
func TestRecorderLimitFloor(t *testing.T) {
	t.Parallel()
	c := protocols.CycleCover()
	rec := NewRecorder(2)
	if _, err := core.Run(c.Proto, 60, core.Options{Seed: 5, Detector: c.Detector, Events: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 || rec.Len() > 8 {
		t.Fatalf("recorder with limit 2 kept %d snapshots, want 1..8", rec.Len())
	}
}

func TestRecorderThinningBoundsMemory(t *testing.T) {
	t.Parallel()
	c := protocols.CycleCover()
	rec := NewRecorder(8)
	if _, err := core.Run(c.Proto, 60, core.Options{Seed: 2, Detector: c.Detector, Events: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() > 8 {
		t.Fatalf("recorder kept %d snapshots, limit 8", rec.Len())
	}
	if rec.Len() == 0 {
		t.Fatal("recorder kept nothing")
	}
}

func TestRecorderSelectClamps(t *testing.T) {
	t.Parallel()
	rec := NewRecorder(8)
	if got := rec.Select([]float64{0.5}); got != nil {
		t.Fatal("empty recorder returned snapshots")
	}
	c := protocols.GlobalStar()
	if _, err := core.Run(c.Proto, 8, core.Options{Seed: 3, Detector: c.Detector, Events: rec}); err != nil {
		t.Fatal(err)
	}
	shots := rec.Select([]float64{-1, 2})
	if len(shots) != 2 || shots[0].Step > shots[1].Step {
		t.Fatalf("clamped selection wrong: %+v", shots)
	}
}

func TestSnapshotDOT(t *testing.T) {
	t.Parallel()
	c := protocols.GlobalStar()
	rec := NewRecorder(8)
	if _, err := core.Run(c.Proto, 6, core.Options{Seed: 4, Detector: c.Detector, Events: rec}); err != nil {
		t.Fatal(err)
	}
	dot := rec.Select([]float64{1})[0].DOT("star")
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "--") {
		t.Fatalf("DOT output malformed:\n%s", dot)
	}
}

func TestEventLog(t *testing.T) {
	t.Parallel()
	var log EventLog
	if log.Len() != 0 || log.String() != "" {
		t.Fatal("fresh log not empty")
	}
	log.Addf("phase %d: %s", 1, "partition")
	log.Addf("phase %d: %s", 2, "line")
	if log.Len() != 2 {
		t.Fatalf("len %d", log.Len())
	}
	s := log.String()
	if !strings.Contains(s, "phase 1: partition") || !strings.Contains(s, "\n") {
		t.Fatalf("log %q", s)
	}
}
