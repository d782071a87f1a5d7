package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// passStride separates the trial seeds of consecutive passes; a pass
// runs fewer trials than this per point, so no two passes of a run
// share a trial seed, and runs with different --seed never do either.
const passStride = 4096

// passSeed returns the base trial seed of pass p of a run.
func passSeed(seed uint64, pass int) uint64 {
	return seed*1_000_000_007 + uint64(pass)*passStride
}

// maxProblems caps the failure messages one run keeps.
const maxProblems = 5

// Pooled means of points with an analytic expectation (the Table 1
// processes) must land within this factor band of it once at least
// minPooled converged trials back them.
const (
	minRatio  = 0.5
	maxRatio  = 2.0
	minPooled = 30
)

// tally accumulates one run's passes.
type tally struct {
	wall     float64   // pass wall time in seconds, output checks excluded
	landings int64     // scheduler steps resolved on enabled pairs
	rates    []float64 // landings per second of each pass
	trials   int
	failed   int
	problems []string
	layers   layers

	// Converged metric values per point, pooled over passes.
	sum   []float64
	count []int
	// Trial 0 of every point from the first pass, re-run after the
	// window.
	first []campaign.RunRecord
	seen  []bool
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// fold counts one finished trial. A trial fails when the campaign
// recorded an error, it was stopped, it failed an output check (its
// metric value is NaN), or it did not converge on a point that does not
// fold budget-cut runs in as data.
func (t *tally) fold(pt *campaign.Point, rec campaign.RunRecord, firstPass, traced bool) {
	t.trials++
	var why string
	switch {
	case rec.Err != "":
		why = rec.Err
	case rec.Stopped:
		why = "stopped before its budget ran out"
	case math.IsNaN(rec.Value):
		why = "failed its output check"
	case !rec.Converged && !pt.IncludeUnconverged:
		why = "did not converge within its step budget"
	}
	if why != "" {
		t.failed++
		t.problem("%s n=%d seed=%d: %s", rec.Protocol, rec.N, rec.Seed, why)
		return
	}
	t.landings += rec.Steps - rec.SkippedSteps
	if rec.Converged {
		t.sum[rec.Point] += rec.Value
		t.count[rec.Point]++
	}
	if firstPass && rec.Trial == 0 {
		t.first[rec.Point] = rec
		t.seen[rec.Point] = true
	}
	if traced {
		t.layers.add(rec)
	}
}

// measure runs passes of the workload's points until the window has
// elapsed (at least one pass). Pass p uses trial seeds passSeed(seed, p)
// onwards.
func measure(w workload, base []campaign.Point, seed uint64, window time.Duration, traced bool) (*tally, error) {
	ck := &checker{}
	points := append([]campaign.Point(nil), base...)
	for i := range points {
		ck.attach(&points[i], w.check)
	}
	t := &tally{
		sum:   make([]float64, len(points)),
		count: make([]int, len(points)),
		first: make([]campaign.RunRecord, len(points)),
		seen:  make([]bool, len(points)),
	}
	pass := 0
	// OnRun runs on the goroutine that called Execute, so it may touch
	// the tally and pass without synchronization.
	opts := campaign.Options{
		Workers: 1,
		OnRun: func(rec campaign.RunRecord) {
			t.fold(&points[rec.Point], rec, pass == 0, traced)
		},
	}
	var before, after runtime.MemStats
	start := time.Now()
	for ; pass == 0 || time.Since(start) < window; pass++ {
		for i := range points {
			points[i].BaseSeed = passSeed(seed, pass)
		}
		if traced {
			runtime.ReadMemStats(&before)
		}
		checked := ck.elapsed()
		landed := t.landings
		passStart := time.Now()
		out, err := campaign.Execute(context.Background(), points, opts)
		d := time.Since(passStart) - (ck.elapsed() - checked)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		if traced {
			runtime.ReadMemStats(&after)
			t.layers.allocBytes += after.TotalAlloc - before.TotalAlloc
			t.layers.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
		}
		t.wall += d.Seconds()
		t.rates = append(t.rates, float64(t.landings-landed)/d.Seconds())
		for i, agg := range out.Aggregates {
			if agg.Trials != points[i].Trials || agg.Converged+agg.Failures != agg.Trials {
				t.problem("pass %d: %s n=%d aggregate accounts for %d converged + %d failed of %d trials, want %d",
					pass, agg.Protocol, agg.N, agg.Converged, agg.Failures, agg.Trials, points[i].Trials)
			}
		}
	}
	if msg := ck.firstFailure(); msg != "" {
		t.problem("%s", msg)
	}
	return t, nil
}

// verify runs the checks that need the whole window: trial 0 of every
// point from the first pass is re-run directly through core.Run and
// must reproduce the campaign's record exactly, and points with an
// analytic expectation must match it in their pooled mean.
func (t *tally) verify(points []campaign.Point) {
	for i := range points {
		pt := &points[i]
		if t.seen[i] {
			if err := rerun(pt, t.first[i]); err != nil {
				t.problem("%s n=%d seed=%d: %v", pt.Protocol, pt.N, t.first[i].Seed, err)
			}
		}
		if pt.Expected > 0 && t.count[i] >= minPooled {
			ratio := t.sum[i] / float64(t.count[i]) / pt.Expected
			if ratio < minRatio || ratio > maxRatio {
				t.problem("%s n=%d: pooled mean over %d trials is %.3g× the analytic expectation, want [%g, %g]",
					pt.Protocol, pt.N, t.count[i], ratio, minRatio, maxRatio)
			}
		}
	}
}

// rerun repeats one recorded trial outside the campaign and compares
// the outcome.
func rerun(pt *campaign.Point, rec campaign.RunRecord) error {
	opts, err := runOptions(pt, rec.Seed, rec.Trial)
	if err != nil {
		return err
	}
	res, err := core.Run(pt.Proto, pt.N, opts)
	if err != nil {
		return err
	}
	got := [5]int64{boolInt(res.Converged), res.Steps, res.ConvergenceTime, res.EffectiveSteps, res.EdgeChanges}
	want := [5]int64{boolInt(rec.Converged), rec.Steps, rec.ConvergenceTime, rec.EffectiveSteps, rec.EdgeChanges}
	if got != want {
		return fmt.Errorf("a direct %s run gives (converged, steps, convergence time, effective steps, edge changes) = %v, the campaign recorded %v",
			opts.Engine, got, want)
	}
	return nil
}

// runOptions builds the core options one trial of the point runs with,
// as the campaign builds them: the point's engine, detector and budget,
// the trial's initial configuration and realized topology.
func runOptions(pt *campaign.Point, seed uint64, trial int) (core.Options, error) {
	opts := core.Options{
		Seed:          seed,
		Engine:        pt.Engine,
		Detector:      pt.Detector,
		MaxSteps:      pt.MaxSteps,
		CheckInterval: pt.CheckInterval,
	}
	if pt.Initial != nil {
		initial, err := pt.Initial(trial)
		if err != nil {
			return opts, err
		}
		opts.Initial = initial
	}
	if pt.Topology != nil {
		topo, err := pt.Topology.Realize(pt.N, seed)
		if err != nil {
			return opts, err
		}
		opts.Topology = topo
	}
	return opts, nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
