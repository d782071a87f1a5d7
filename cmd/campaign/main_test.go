package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestSpecRefusesSingleItemFlags sets each single-item flag next to
// -spec: a spec file carries its own fields, so the command must
// refuse the flag, name it, and run nothing. Without the flag the same
// spec runs.
func TestSpecRefusesSingleItemFlags(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"items":[{"name":"cycle-cover","sizes":[8]}],"trials":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"name":                "global-star",
		"sizes":               "64",
		"trials":              "100",
		"seed":                "7",
		"schedulers":          "weighted",
		"metric":              "steps",
		"engine":              "auto",
		"detector":            "quiescence",
		"faults":              "crash@5",
		"topology":            "gnp@0.5",
		"include-unconverged": "true",
		"max-steps":           "5",
	}
	for _, name := range singleItemFlags {
		if _, ok := cases[name]; !ok {
			t.Errorf("no case sets -%s", name)
		}
	}
	for name, value := range cases {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(dir, name+".json")
			err := run([]string{"-spec", specPath, "-out", out, "-" + name + "=" + value})
			if err == nil || !strings.Contains(err.Error(), "-"+name+" cannot be combined with -spec") {
				t.Fatalf("-spec with -%s=%s: error %v, want a refusal naming -%s", name, value, err, name)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("-spec with -%s wrote %s", name, out)
			}
		})
	}
	out := filepath.Join(dir, "control.json")
	if err := run([]string{"-spec", specPath, "-out", out}); err != nil {
		t.Fatalf("-spec alone: %v", err)
	}
	if b, err := os.ReadFile(out); err != nil || !bytes.Contains(b, []byte(`"trials": 2`)) {
		t.Fatalf("-spec alone wrote %q, %v; want the spec's 2 trials", b, err)
	}
}

// TestReplayFlags drives -trace and -dot: on a one-point campaign they
// write the replayed trial's event trace (start to end record) and its
// final network; on a campaign of two points they are refused before
// any file is written.
func TestReplayFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath, dotPath := filepath.Join(dir, "run.ndjson"), filepath.Join(dir, "final.dot")
	args := []string{"-name", "simple-global-line", "-trials", "2", "-out", filepath.Join(dir, "agg.json"),
		"-trace", tracePath, "-dot", dotPath}
	if err := run(append(args, "-sizes", "16,32")); err == nil || !strings.Contains(err.Error(), "one-point campaign") {
		t.Fatalf("two points with -trace and -dot: error %v, want a one-point refusal", err)
	}
	for _, path := range []string{tracePath, dotPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("the refused campaign wrote %s", path)
		}
	}
	if err := run(append(args, "-sizes", "24")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if !strings.Contains(lines[0], `"kind":"start"`) || !strings.Contains(lines[len(lines)-1], `"kind":"end"`) {
		t.Fatalf("trace runs from %q to %q; want a start record to an end record", lines[0], lines[len(lines)-1])
	}
	if dot, err := os.ReadFile(dotPath); err != nil || !bytes.HasPrefix(dot, []byte("graph ")) {
		t.Fatalf("DOT file %q, %v; want a graph", dot, err)
	}
}

// TestReplayNoteNamesMeasuredEngine replays a traced trial the way
// -trace does. Under -engine auto both the measured trial and the
// replay run the batch engine, but at n = 80 the measured trial takes
// batch's batched path while the replay's NDJSON sink makes it
// exact-step, so the two differ and the note must name the measured
// trial's batched path. (Up to 64 nodes the bit-row index serves the
// run and batch steps exactly, so the replay would match it.)
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
	if replay.Engine != core.EngineBatch || replay.Metrics.ExactFallbackLandings != replay.Metrics.Landings {
		t.Fatalf("traced replay ran %s with %d of %d landings exact-stepped; want batch, all exact",
			replay.Engine, replay.Metrics.ExactFallbackLandings, replay.Metrics.Landings)
	}
	note := replayNote(measured, replay)
	if !strings.Contains(note, "the batch engine's batched path") {
		t.Fatalf("note %q does not name the measured trial's batched path", note)
	}
	replay.Steps = measured.Steps
	if note := replayNote(measured, replay); note != "" {
		t.Fatalf("a replay that matched the measured steps got note %q", note)
	}
}
