package campaign

// Per-trial panic isolation and retry with backoff. Every trial
// attempt runs under a recover(): a panic anywhere in the attempt —
// engine, detector, metric, initial builder — becomes a failed
// RunRecord instead of taking down the worker pool, and the worker's
// workspace (whose indexes the panic may have left half-updated) is
// discarded and replaced before it can poison a later trial. On top of
// that, RetryPolicy re-runs transiently failed trials: per-run
// timeouts (machine load) and first-time panics retry with exponential
// backoff, while deterministic failures — a repeat of the same panic
// on the same seed, budget exhaustion, plain errors, cancellation —
// are recorded immediately and never hot-loop.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// RetryPolicy governs how many times one trial may run and how long to
// wait between attempts. The zero value means a single attempt —
// exactly the pre-retry behavior.
type RetryPolicy struct {
	// MaxAttempts caps the total attempts per trial; values ≤ 1 mean
	// one attempt (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry, doubling each
	// further retry; ≤ 0 means 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay; ≤ 0 means 5s.
	MaxBackoff time.Duration
	// Deadline, when positive, caps one trial's total wall-clock time
	// across all attempts and backoffs; once exceeded, the last
	// attempt's record stands.
	Deadline time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number `retry` (0-based):
// BaseBackoff doubled per retry, capped at MaxBackoff.
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// runTrial executes one trial under the retry policy and never returns
// an unrecoverable error: failures (including panics) are encoded on
// the record so the collector can count and report them
// deterministically. wsp points at the calling worker's workspace
// slot; a panicking attempt replaces the slot's workspace with a fresh
// one (see runAttempt), so a poisoned workspace is never reused — by a
// retry or by any later trial of the worker.
func runTrial(ctx context.Context, pt *Point, pointIdx, trial int, timeout time.Duration, retry RetryPolicy, wsp **core.Workspace) RunRecord {
	var trialDeadline time.Time
	if retry.Deadline > 0 {
		trialDeadline = time.Now().Add(retry.Deadline)
	}
	maxAttempts := retry.attempts()
	var prevPanic string
	for attempt := 1; ; attempt++ {
		rec, timedOut := runAttempt(ctx, pt, pointIdx, trial, timeout, wsp)
		if attempt > 1 {
			// Only retried records carry the attempt count, so
			// steady-state records stay byte-identical with and without a
			// policy attached.
			rec.Attempts = attempt
		}
		retryable := false
		switch {
		case rec.Panicked:
			// A panic on the same seed with the same message is
			// deterministic: record it and move on rather than hot-loop.
			retryable = rec.Err != prevPanic
			prevPanic = rec.Err
		case rec.Err != "":
			// Plain errors (initial builder, engine validation) are
			// deterministic in the trial's inputs.
		case rec.Stopped:
			// A per-run timeout is transient — the same seed can finish
			// on a less-loaded machine. Cancellation (and a caller Stop
			// hook) is terminal.
			retryable = timedOut
		}
		if !retryable || attempt >= maxAttempts || ctx.Err() != nil {
			return rec
		}
		if !trialDeadline.IsZero() && !time.Now().Before(trialDeadline) {
			return rec
		}
		t := time.NewTimer(retry.backoff(attempt - 1))
		select {
		case <-ctx.Done():
			t.Stop()
			return rec
		case <-t.C:
		}
	}
}

// runAttempt executes a single attempt of one trial, recovering any
// panic into a failed record. timedOut reports whether a Stopped
// result was cut by the per-run timeout (retryable) rather than by
// cancellation or a caller Stop hook (terminal).
func runAttempt(ctx context.Context, pt *Point, pointIdx, trial int, timeout time.Duration, wsp **core.Workspace) (rec RunRecord, timedOut bool) {
	rec = RunRecord{
		Point:     pointIdx,
		Protocol:  pt.Protocol,
		N:         pt.N,
		Scheduler: schedulerLabel(*pt),
		Trial:     trial,
		Seed:      pt.BaseSeed + uint64(trial),
	}
	attemptStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rec.Panicked = true
			rec.Err = fmt.Sprintf("panic: %v", r)
			rec.DurationNS = time.Since(attemptStart).Nanoseconds()
			timedOut = false
			// The panic may have unwound mid-mutation, leaving the
			// workspace's configuration and indexes inconsistent: discard
			// it so nothing downstream ever reuses poisoned state.
			if wsp != nil && *wsp != nil {
				*wsp = core.NewWorkspace()
			}
		}
	}()

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	stop := func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
		}
		if timeout > 0 && time.Now().After(deadline) {
			return true
		}
		return pt.Stop != nil && pt.Stop()
	}
	cutByTimeout := func() bool {
		return ctx.Err() == nil && timeout > 0 && !time.Now().Before(deadline)
	}

	if pt.DynProto != nil {
		rec = runDynTrial(pt, rec, stop)
		return rec, rec.Stopped && cutByTimeout()
	}

	var ws *core.Workspace
	if wsp != nil {
		ws = *wsp
	}
	opts := core.Options{
		Seed:          rec.Seed,
		Engine:        pt.Engine,
		Detector:      pt.Detector,
		MaxSteps:      pt.MaxSteps,
		CheckInterval: pt.CheckInterval,
		Stop:          stop,
		Workspace:     ws,
	}
	if pt.NewScheduler != nil {
		opts.Scheduler = pt.NewScheduler()
	}
	if pt.Initial != nil {
		initial, err := pt.Initial(trial)
		if err != nil {
			rec.Err = err.Error()
			return rec, false
		}
		opts.Initial = initial
	}
	if pt.Topology != nil {
		// Each trial realizes its own topology instance from the trial
		// seed, so trials sample independent graphs from the same model
		// and a record is reproducible from (spec, seed) alone.
		topo, err := pt.Topology.Realize(pt.N, rec.Seed)
		if err != nil {
			rec.Err = err.Error()
			return rec, false
		}
		opts.Topology = topo
		rec.Topology = pt.Topology.Label()
	}
	proto := pt.Proto
	var injection *scenario.Injection
	if pt.prepared != nil {
		proto = pt.prepared.Proto
		injection = pt.prepared.NewInjection(rec.Seed)
		opts.Injector = injection
		rec.Faults = pt.Faults.String()
	}

	start := time.Now()
	res, err := core.Run(proto, pt.N, opts)
	rec.DurationNS = time.Since(start).Nanoseconds()
	if injection != nil {
		counts := injection.Counts()
		rec.FaultCrashes = counts.Crashes
		rec.FaultEdgeDeletions = counts.EdgeDeletions
		rec.FaultResets = counts.Resets
	}
	if err != nil {
		rec.Err = err.Error()
		return rec, false
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
	rec.SampleFallbacks = res.Metrics.SampleFallbacks
	rec.BucketDraws = res.Metrics.BucketDraws
	rec.ExactFallbackLandings = res.Metrics.ExactFallbackLandings
	rec.CollapsedLandings = res.Metrics.CollapsedLandings
	rec.FastForwardEpochs = res.Metrics.FastForwardEpochs
	metric := pt.Metric
	if metric == nil {
		metric = MetricConvergenceTime
	}
	rec.Value = metric(res, pt.N)
	return rec, rec.Stopped && cutByTimeout()
}
