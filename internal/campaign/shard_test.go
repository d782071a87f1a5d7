package campaign

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func TestPlanShardsPartition(t *testing.T) {
	t.Parallel()
	points := []Point{
		{Protocol: "a", N: 8, Trials: 1, BaseSeed: 100},
		{Protocol: "b", N: 8, Trials: 32, BaseSeed: 200},
		{Protocol: "c", N: 8, Trials: 33, BaseSeed: 300},
		{Protocol: "d", N: 8, Trials: 100, BaseSeed: 400},
	}
	for _, shardTrials := range []int{0, 1, 7, 32, 1000} {
		shards := planShards(points, shardTrials)
		want := shardTrials
		if want <= 0 {
			want = DefaultShardTrials
		}
		gid, point, nextTrial := 0, 0, 0
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("shardTrials=%d: shard %d carries index %d", shardTrials, i, s.Index)
			}
			if s.Trials < 1 || s.Trials > want {
				t.Fatalf("shardTrials=%d: shard %d spans %d trials", shardTrials, i, s.Trials)
			}
			// Contiguous coverage in point order, then trial order.
			if s.Point < point || (s.Point == point && s.FirstTrial != nextTrial) {
				t.Fatalf("shardTrials=%d: shard %d = %+v breaks contiguity at point %d trial %d",
					shardTrials, i, s, point, nextTrial)
			}
			if s.Point > point {
				if nextTrial != points[point].Trials {
					t.Fatalf("shardTrials=%d: point %d ended at trial %d of %d", shardTrials, point, nextTrial, points[point].Trials)
				}
				point, nextTrial = s.Point, 0
				if s.FirstTrial != 0 {
					t.Fatalf("shardTrials=%d: shard %d starts point %d at trial %d", shardTrials, i, s.Point, s.FirstTrial)
				}
			}
			pt := points[s.Point]
			if s.Protocol != pt.Protocol || s.N != pt.N || s.FirstSeed != pt.BaseSeed+uint64(s.FirstTrial) {
				t.Fatalf("shardTrials=%d: shard %d identity %+v does not restate its point", shardTrials, i, s)
			}
			nextTrial += s.Trials
			gid += s.Trials
		}
		total := 0
		for _, pt := range points {
			total += pt.Trials
		}
		if gid != total || point != len(points)-1 || nextTrial != points[point].Trials {
			t.Fatalf("shardTrials=%d: partition covers %d of %d trials", shardTrials, gid, total)
		}
	}
}

// TestAggregateMergeMatchesSinglePass is the crash-safety property:
// folding a point's trials shard by shard and merging the shard
// aggregates must match the single-pass fold — exactly in every
// counter and in min/max, within floating-point tolerance in the
// moments.
func TestAggregateMergeMatchesSinglePass(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	newAgg := func() Aggregate { return Aggregate{Protocol: "p", N: 16, Scheduler: "uniform"} }
	fold := func(agg *Aggregate, acc *stats.Online, v float64, converged bool) {
		agg.Trials++
		if converged {
			agg.Converged++
			acc.Add(v)
		} else {
			agg.Failures++
		}
	}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		conv := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1e4
			conv[i] = rng.Intn(8) != 0
		}
		whole := newAgg()
		var wholeAcc stats.Online
		for i := range vals {
			fold(&whole, &wholeAcc, vals[i], conv[i])
		}
		whole.setAcc(wholeAcc)

		merged := newAgg()
		for i := 0; i < n; {
			j := i + 1 + rng.Intn(n-i)
			chunk := newAgg()
			var chunkAcc stats.Online
			for k := i; k < j; k++ {
				fold(&chunk, &chunkAcc, vals[k], conv[k])
			}
			chunk.setAcc(chunkAcc)
			if err := merged.Merge(chunk); err != nil {
				t.Fatal(err)
			}
			i = j
		}
		if merged.Trials != whole.Trials || merged.Converged != whole.Converged ||
			merged.Failures != whole.Failures || merged.Min != whole.Min || merged.Max != whole.Max {
			t.Fatalf("trial %d: counts/min/max diverged:\n%+v\nvs\n%+v", trial, merged, whole)
		}
		if math.Abs(merged.Mean-whole.Mean) > 1e-9*math.Max(1, math.Abs(whole.Mean)) {
			t.Fatalf("trial %d: mean %g vs %g", trial, merged.Mean, whole.Mean)
		}
		if math.Abs(merged.StdDev-whole.StdDev) > 1e-6*math.Max(1, whole.StdDev) {
			t.Fatalf("trial %d: stddev %g vs %g", trial, merged.StdDev, whole.StdDev)
		}
	}
}

func TestAggregateMergeRejectsMismatch(t *testing.T) {
	t.Parallel()
	a := Aggregate{Protocol: "p", N: 16, Scheduler: "uniform"}
	for _, b := range []Aggregate{
		{Protocol: "q", N: 16, Scheduler: "uniform"},
		{Protocol: "p", N: 32, Scheduler: "uniform"},
		{Protocol: "p", N: 16, Scheduler: "round-robin"},
		{Protocol: "p", N: 16, Scheduler: "uniform", Faults: "crash@5"},
	} {
		if err := a.Merge(b); err == nil {
			t.Fatalf("merged mismatched aggregate %+v without error", b)
		}
	}
}

func TestSpecHashSensitivity(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	base := func() []Point {
		return []Point{{
			Protocol: "cycle-cover", N: 16, Trials: 8, BaseSeed: 1,
			Proto: cc.Proto, Detector: cc.Detector, MetricName: "convergence-time",
		}}
	}
	h := SpecHash(base(), 32)
	if h != SpecHash(base(), 32) {
		t.Fatal("hash not deterministic")
	}
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("hash %q is not lowercase sha256 hex", h)
	}
	mutate := map[string]func(p []Point) []Point{
		"n":       func(p []Point) []Point { p[0].N = 24; return p },
		"trials":  func(p []Point) []Point { p[0].Trials = 9; return p },
		"seed":    func(p []Point) []Point { p[0].BaseSeed = 2; return p },
		"metric":  func(p []Point) []Point { p[0].MetricName = "steps"; return p },
		"proto":   func(p []Point) []Point { p[0].Protocol = "other"; return p },
		"budget":  func(p []Point) []Point { p[0].MaxSteps = 1000; return p },
		"unconv":  func(p []Point) []Point { p[0].IncludeUnconverged = true; return p },
		"expect":  func(p []Point) []Point { p[0].Expected = 3.5; return p },
		"morepts": func(p []Point) []Point { return append(p, p[0]) },
	}
	for name, fn := range mutate {
		if got := SpecHash(fn(base()), 32); got == h {
			t.Fatalf("mutating %s did not change the spec hash", name)
		}
	}
	if SpecHash(base(), 16) == h {
		t.Fatal("changing the shard granularity did not change the spec hash")
	}
}

// TestSpecHashGolden pins the hash of a fixed static point list, so a
// change to the hashed fields or their encoding cannot silently
// orphan existing checkpoints (resume refuses a file whose hash
// differs).
func TestSpecHashGolden(t *testing.T) {
	t.Parallel()
	cc := protocols.CycleCover()
	points := []Point{
		{
			Protocol: "cycle-cover", N: 24, Trials: 5, BaseSeed: 9,
			MaxSteps: 1 << 20, CheckInterval: 64, Engine: core.EngineSparse,
			Proto: cc.Proto, Detector: cc.Detector, MetricName: "steps",
			Initial: func(int) (*core.Config, error) { return core.NewConfig(cc.Proto, 24), nil },
			Faults: &scenario.FaultPlan{Seed: 3, Events: []scenario.Fault{
				{Kind: scenario.KindEdge, Rate: 0.001},
				{Kind: scenario.KindReset, Step: 500, Count: 2},
			}},
			Topology:           &core.TopologySpec{Kind: core.TopoGnp, Param: 0.5},
			IncludeUnconverged: true, Expected: 1.5,
		},
		{Protocol: "bare", N: 8, Trials: 2},
	}
	const want = "e4fcfae29089fabc774bae7b5fdbfc7e67e589628a2faa99f5687008dd2ac748"
	if got := SpecHash(points, 16); got != want {
		t.Fatalf("SpecHash = %s, want %s", got, want)
	}
}

func TestLocate(t *testing.T) {
	t.Parallel()
	points := []Point{{Trials: 3}, {Trials: 1}, {Trials: 4}}
	offsets := []int{0, 3, 4}
	for gid := 0; gid < 8; gid++ {
		p, tr, err := locate(offsets, points, gid)
		if err != nil {
			t.Fatalf("gid %d: %v", gid, err)
		}
		if got := offsets[p] + tr; got != gid || tr >= points[p].Trials {
			t.Fatalf("gid %d located at point %d trial %d", gid, p, tr)
		}
	}
	for _, gid := range []int{-1, 8, 1000} {
		if _, _, err := locate(offsets, points, gid); err == nil {
			t.Fatalf("gid %d accepted", gid)
		}
	}
}
