package campaign

// Per-trial panic isolation. Every trial runs once under a recover():
// a panic anywhere in it — engine, detector, metric, initial builder —
// becomes a failed RunRecord instead of taking down the worker pool,
// and the worker's workspace (whose indexes the panic may have left
// half-updated) is discarded and replaced before it can poison a later
// trial. A trial is a function of (point, seed): the step budget is
// its only cut, and the campaign's context is the only thing that can
// stop it early.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// runTrial executes one trial and never returns an unrecoverable
// error: failures (including panics) are encoded on the record so the
// collector can count and report them deterministically. wsp points at
// the calling worker's workspace slot; a panicking trial replaces the
// slot's workspace with a fresh one, so a poisoned workspace is never
// reused by a later trial of the worker.
func runTrial(ctx context.Context, pt *Point, pointIdx, trial int, wsp **core.Workspace) (rec RunRecord) {
	rec = RunRecord{
		Point:     pointIdx,
		Protocol:  pt.Protocol,
		N:         pt.N,
		Scheduler: schedulerLabel(*pt),
		Trial:     trial,
		Seed:      pt.BaseSeed + uint64(trial),
	}
	trialStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rec.Panicked = true
			rec.Err = fmt.Sprintf("panic: %v", r)
			rec.DurationNS = time.Since(trialStart).Nanoseconds()
			// The panic may have unwound mid-mutation, leaving the
			// workspace's configuration and indexes inconsistent: discard
			// it so nothing downstream ever reuses poisoned state.
			*wsp = core.NewWorkspace()
		}
	}()

	proto, opts, err := pt.Trial(trial)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	opts.Stop = func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	opts.Workspace = *wsp
	rec.Topology = pt.Topology.Label()
	rec.Faults = pt.Faults.String()

	start := time.Now()
	res, err := core.Run(proto, pt.N, opts)
	rec.DurationNS = time.Since(start).Nanoseconds()
	if injection, ok := opts.Injector.(*scenario.Injection); ok {
		counts := injection.Counts()
		rec.FaultCrashes = counts.Crashes
		rec.FaultEdgeDeletions = counts.EdgeDeletions
		rec.FaultResets = counts.Resets
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Engine = res.Engine.String()
	rec.Converged = res.Converged
	rec.Stopped = res.Stopped
	rec.Steps = res.Steps
	rec.ConvergenceTime = res.ConvergenceTime
	rec.EffectiveSteps = res.EffectiveSteps
	rec.EdgeChanges = res.EdgeChanges
	rec.SkippedSteps = res.Metrics.SkippedSteps
	rec.SkipBatches = res.Metrics.SkipBatches
	rec.SampleRejections = res.Metrics.SampleRejections
	rec.BucketDraws = res.Metrics.BucketDraws
	rec.ExactFallbackLandings = res.Metrics.ExactFallbackLandings
	rec.CollapsedLandings = res.Metrics.CollapsedLandings
	rec.FastForwardEpochs = res.Metrics.FastForwardEpochs
	metric := pt.Metric
	if metric == nil {
		metric = MetricConvergenceTime
	}
	rec.Value = metric(res, pt.N)
	return rec
}
