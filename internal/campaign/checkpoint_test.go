package campaign

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// resumePoints builds a two-point grid pinned to one engine; each call
// returns a fresh slice so prepare()'s in-place resolution never leaks
// between Executes.
func resumePoints(eng core.Engine, metric Metric) []Point {
	cc := protocols.CycleCover()
	return []Point{
		{Protocol: "cycle-cover", N: 14, Trials: 10, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, Engine: eng, Metric: metric},
		{Protocol: "cycle-cover", N: 18, Trials: 7, BaseSeed: 5,
			Proto: cc.Proto, Detector: cc.Detector, Engine: eng, Metric: metric},
	}
}

// TestResumeBitIdentical is the tentpole acceptance: interrupt a
// checkpointed campaign mid-flight, resume it in a fresh Execute, and
// the merged outcome must be bit-identical to an uninterrupted run —
// for every engine name a spec or checkpoint may carry ("fast", the
// retired dense-index engine's, parses as sparse).
func TestResumeBitIdentical(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"baseline", "fast", "sparse", "batch"} {
		eng, err := core.ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := Options{Workers: 3, KeepRuns: true, ShardTrials: 3}
			ref, err := Execute(context.Background(), resumePoints(eng, nil), base)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			interrupted := base
			interrupted.Checkpoint = ckpt
			interrupted.CheckpointEvery = time.Nanosecond // flush every shard
			var folded atomic.Int64
			interrupted.OnRun = func(RunRecord) {
				if folded.Add(1) == 5 {
					cancel()
				}
			}
			if _, err := Execute(ctx, resumePoints(eng, nil), interrupted); err != context.Canceled {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("no checkpoint after interruption: %v", err)
			}

			resumed := base
			resumed.Checkpoint = ckpt
			resumed.Resume = true
			var order []int
			resumed.OnRun = func(rec RunRecord) { order = append(order, rec.Point*100+rec.Trial) }
			got, err := Execute(context.Background(), resumePoints(eng, nil), resumed)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(got.Aggregates, ref.Aggregates) {
				t.Fatalf("resumed aggregates diverge:\n%+v\nvs uninterrupted:\n%+v", got.Aggregates, ref.Aggregates)
			}
			if !reflect.DeepEqual(stripDurations(got.Runs), stripDurations(ref.Runs)) {
				t.Fatal("resumed raw runs diverge from uninterrupted run")
			}
			// Replayed and live records interleave into one global order.
			if len(order) != len(ref.Runs) {
				t.Fatalf("OnRun fired %d times, want %d", len(order), len(ref.Runs))
			}
			for i := 1; i < len(order); i++ {
				if order[i] <= order[i-1] {
					t.Fatalf("resumed OnRun out of global order: %v", order)
				}
			}
			// The resumed process flushed a complete checkpoint: a second
			// resume replays everything and runs nothing.
			_, done, err := ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			shards := planShards(resumePoints(eng, nil), 3)
			if len(done) != len(shards) {
				t.Fatalf("final checkpoint holds %d shards, want %d", len(done), len(shards))
			}
		})
	}
}

// TestResumeRerunsCancelledShard: a run stopped by the campaign's own
// cancellation must never reach the checkpoint, even when it is the
// last record its shard needed. One worker makes the cut exact: trial
// 3 cancels the campaign while it starts, so it is stopped at its
// first step and completes shard 1 (trials 2–3) with a Stopped record.
// The checkpoint must hold shard 0 and leave shard 1 out, and the
// resume must re-run it to the uninterrupted outcome.
func TestResumeRerunsCancelledShard(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	const n = 14
	points := func(onStart func(trial int)) []Point {
		return []Point{{Protocol: "cycle-cover", N: n, Trials: 6, BaseSeed: 1, Proto: cc.Proto, Detector: cc.Detector,
			Initial: func(trial int) (*core.Config, error) {
				onStart(trial)
				return core.NewConfig(cc.Proto, n), nil
			}}}
	}
	base := Options{Workers: 1, KeepRuns: true, ShardTrials: 2}
	ref, err := Execute(context.Background(), points(func(int) {}), base)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := base
	interrupted.Checkpoint = ckpt
	interrupted.CheckpointEvery = time.Nanosecond
	cut, err := Execute(ctx, points(func(trial int) {
		if trial == 3 {
			cancel()
		}
	}), interrupted)
	if err != context.Canceled {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if len(cut.Runs) != 4 || !cut.Runs[3].Stopped {
		t.Fatalf("interrupted run folded %+v, want trials 0–2 and a stopped trial 3", cut.Runs)
	}
	_, done, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var held []int
	for _, sr := range done {
		held = append(held, sr.Index)
	}
	if !reflect.DeepEqual(held, []int{0}) {
		t.Fatalf("checkpoint holds shards %v, want [0]: shard 1 carries a cancelled run", held)
	}

	resumed := base
	resumed.Checkpoint = ckpt
	resumed.Resume = true
	got, err := Execute(context.Background(), points(func(int) {}), resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(got.Aggregates, ref.Aggregates) {
		t.Fatalf("resumed aggregates diverge:\n%+v\nvs uninterrupted:\n%+v", got.Aggregates, ref.Aggregates)
	}
	if !reflect.DeepEqual(stripDurations(got.Runs), stripDurations(ref.Runs)) {
		t.Fatal("resumed raw runs diverge from uninterrupted run")
	}
}

// TestResumeSkipsCompletedShards pins the "restart skips finished
// work" half of the contract: the resumed process must execute exactly
// the trials missing from the checkpoint.
func TestResumeSkipsCompletedShards(t *testing.T) {
	t.Parallel()
	var live atomic.Int64
	counting := func(res core.Result, _ int) float64 {
		live.Add(1)
		return float64(res.ConvergenceTime)
	}
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var folded atomic.Int64
	opts := Options{Workers: 2, ShardTrials: 2, Checkpoint: ckpt, CheckpointEvery: time.Nanosecond,
		OnRun: func(RunRecord) {
			if folded.Add(1) == 6 {
				cancel()
			}
		}}
	if _, err := Execute(ctx, resumePoints(core.EngineAuto, counting), opts); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, done, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := 0
	for _, sr := range done {
		checkpointed += sr.Trials
	}

	live.Store(0)
	out, err := Execute(context.Background(), resumePoints(core.EngineAuto, counting),
		Options{Workers: 2, ShardTrials: 2, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(live.Load()), 17-checkpointed; got != want {
		t.Fatalf("resumed process executed %d trials, want %d (checkpoint held %d of 17)", got, want, checkpointed)
	}
	for _, agg := range out.Aggregates {
		if agg.Converged != agg.Trials || agg.Failures != 0 {
			t.Fatalf("resumed aggregate incomplete: %+v", agg)
		}
	}
}

func TestResumeRequiresCheckpoint(t *testing.T) {
	t.Parallel()
	_, err := Execute(context.Background(), resumePoints(core.EngineAuto, nil), Options{Resume: true})
	if err == nil || !strings.Contains(err.Error(), "Resume requires") {
		t.Fatalf("err = %v", err)
	}
}

// TestResumeRejectsMalformed feeds Execute a gallery of damaged or
// mismatched checkpoint files; every one must be a descriptive error
// before any trial runs — never a panic, never a silent merge.
func TestResumeRejectsMalformed(t *testing.T) {
	t.Parallel()
	points := func() []Point { return resumePoints(core.EngineAuto, nil) }
	opts := func(path string) Options {
		return Options{Workers: 2, ShardTrials: 3, Checkpoint: path, Resume: true}
	}

	// A valid complete checkpoint to corrupt.
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.ckpt")
	if _, err := Execute(context.Background(), points(), opts(valid)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint only has %d lines", len(lines))
	}
	write := func(name string, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := map[string]string{
		"garbage header":   "not json\n",
		"empty file":       "",
		"truncated shard":  lines[0] + "\n" + lines[1][:len(lines[1])/2] + "\n",
		"duplicate shard":  lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n",
		"foreign schema":   strings.Replace(lines[0], `"schema":1`, `"schema":99`, 1) + "\n",
		"tampered trials":  lines[0] + "\n" + strings.Replace(lines[1], `"trials":3`, `"trials":2`, 1) + "\n",
		"tampered seed":    lines[0] + "\n" + strings.Replace(lines[1], `"first_seed":1`, `"first_seed":9`, 1) + "\n",
		"foreign campaign": strings.Replace(lines[0], `"spec_hash":"`, `"spec_hash":"ffff`, 1) + "\n",
	}
	for name, content := range cases {
		p := write(strings.ReplaceAll(name, " ", "-"), content)
		if _, err := Execute(context.Background(), points(), opts(p)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: panicked: %v", name, err)
		}
	}

	// A different spec must also refuse the valid file.
	other := points()
	other[0].BaseSeed = 999
	if _, err := Execute(context.Background(), other, opts(valid)); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign spec resumed: %v", err)
	}
	// And a different shard granularity.
	o := opts(valid)
	o.ShardTrials = 4
	if _, err := Execute(context.Background(), points(), o); err == nil {
		t.Fatal("foreign shard partition resumed")
	}

	// Version gate: both sides set and different is an error; either
	// side empty is not (test binaries carry no vcs stamp).
	hdr := CheckpointHeader{Schema: checkpointSchema, SpecHash: "x", ShardTrials: 3, Shards: 1, Version: "aaa"}
	vp := filepath.Join(dir, "version.ckpt")
	if err := WriteCheckpoint(vp, hdr, nil); err != nil {
		t.Fatal(err)
	}
	want := hdr
	want.Version = "bbb"
	if _, err := loadResume(vp, want, nil, nil); err == nil || !strings.Contains(err.Error(), "build") {
		t.Fatalf("version mismatch accepted: %v", err)
	}
	want.Version = ""
	if _, err := loadResume(vp, want, nil, nil); err != nil {
		t.Fatalf("unset local version rejected: %v", err)
	}
}

// TestWriteCheckpointAtomic checks the persistence protocol's visible
// guarantees: the target directory holds exactly the checkpoint (no
// temp residue) and a rewrite replaces the content wholesale.
func TestWriteCheckpointAtomic(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	hdr := CheckpointHeader{Schema: checkpointSchema, SpecHash: "s", ShardTrials: 4, Shards: 2}
	if err := WriteCheckpoint(path, hdr, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, hdr, []ShardResult{{
		Shard: Shard{Index: 0, Protocol: "p", N: 4, Trials: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "c.ckpt" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want just c.ckpt", names)
	}
	got, done, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr || len(done) != 1 {
		t.Fatalf("read back %+v with %d shards", got, len(done))
	}
}

// TestCheckpointGolden pins the on-disk NDJSON schema byte for byte.
// Regenerate with `go test ./internal/campaign -run Golden -update`
// after bumping checkpointSchema for an intentional format change.
func TestCheckpointGolden(t *testing.T) {
	t.Parallel()
	hdr := CheckpointHeader{
		Schema:      checkpointSchema,
		SpecHash:    "a3f18c09d2b745e6a3f18c09d2b745e6a3f18c09d2b745e6a3f18c09d2b745e6",
		Version:     "0123456789abcdef",
		ShardTrials: 2,
		Shards:      2,
	}
	var acc stats.Online
	acc.Add(512)
	acc.Add(768)
	sr := ShardResult{
		Shard: Shard{Index: 1, Point: 0, Protocol: "cycle-cover", N: 16, FirstTrial: 2, Trials: 2, FirstSeed: 3},
		Runs: []RunRecord{
			{Point: 0, Protocol: "cycle-cover", N: 16, Scheduler: "uniform", Trial: 2, Seed: 3,
				Engine: "fast", Converged: true, Steps: 512, ConvergenceTime: 512,
				EffectiveSteps: 100, EdgeChanges: 40, Value: 512, DurationNS: 1000},
			{Point: 0, Protocol: "cycle-cover", N: 16, Scheduler: "uniform", Trial: 3, Seed: 4,
				Engine: "fast", Converged: true, Steps: 768, ConvergenceTime: 768,
				EffectiveSteps: 150, EdgeChanges: 60, Value: 768, DurationNS: 2000, Attempts: 2},
		},
	}
	sr.Agg = Aggregate{Protocol: "cycle-cover", N: 16, Scheduler: "uniform", Trials: 2, Converged: 2,
		TotalSteps: 1280, TotalEffectiveSteps: 250}
	sr.Agg.setAcc(acc)

	path := filepath.Join(t.TempDir(), "golden.ckpt")
	if err := WriteCheckpoint(path, hdr, []ShardResult{sr}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "checkpoint.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("checkpoint schema drifted from golden file (bump checkpointSchema for intentional changes, then -update):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The golden bytes must also read back losslessly.
	rh, done, err := ReadCheckpoint(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if rh != hdr || len(done) != 1 || !reflect.DeepEqual(done[0], sr) {
		t.Fatalf("golden round trip diverged: %+v / %+v", rh, done)
	}
}
