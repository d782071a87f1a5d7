package main

import "repro/internal/campaign"

// layers sums what a traced run sees at the layer boundaries the
// benchmark reaches from outside the program:
//
//   - campaign: each pass is one campaign.Execute call; its wall time
//     minus the engine time of its trials is the campaign layer's own
//     time (scheduling, reduction, topology realization, workspace
//     resets outside core.Run);
//   - engine: RunRecord.DurationNS is the campaign's span around each
//     core.Run call, and the record's counters split that run's
//     scheduler steps into the engine tiers — skipped by the geometric
//     gap, landed exactly, drawn from a bucket plan, or collapsed
//     analytically;
//   - Go runtime: bytes allocated and GC pause time around each pass.
type layers struct {
	engineNS      int64
	steps         int64
	skipped       int64
	collapsed     int64
	planned       int64
	exactFallback int64
	rejections    int64
	allocBytes    uint64
	gcPauseNS     uint64
}

func (l *layers) add(rec campaign.RunRecord) {
	l.engineNS += rec.DurationNS
	l.steps += rec.Steps
	l.skipped += rec.SkippedSteps
	l.collapsed += rec.CollapsedLandings
	l.planned += rec.BucketDraws
	l.exactFallback += rec.ExactFallbackLandings
	l.rejections += rec.SampleRejections
}

// metrics reports the per-layer figures of a window of trials taking
// wall seconds in total. Shares of a tier a workload never reaches are
// zero.
func (l *layers) metrics(trials int, wall float64) map[string]metric {
	n := float64(trials)
	landings := float64(l.steps - l.skipped - l.collapsed)
	resolved := landings + float64(l.collapsed)
	engineNS := float64(l.engineNS)
	return map[string]metric{
		"campaign_us_per_trial":         {(wall*1e9 - engineNS) / n / 1e3, "us"},
		"engine_ms_per_trial":           {engineNS / n / 1e6, "ms"},
		"engine_ns_per_landing":         {engineNS / resolved, "ns"},
		"landings_per_trial":            {resolved / n, "count"},
		"skipped_step_share":            {ratio(float64(l.skipped), float64(l.steps)), "ratio"},
		"planned_landing_share":         {ratio(float64(l.planned), resolved), "ratio"},
		"collapsed_landing_share":       {ratio(float64(l.collapsed), resolved), "ratio"},
		"exact_fallback_share":          {ratio(float64(l.exactFallback), landings), "ratio"},
		"sample_rejections_per_landing": {ratio(float64(l.rejections), landings), "ratio"},
		"alloc_kb_per_trial":            {float64(l.allocBytes) / n / 1024, "KB"},
		"gc_pause_us_per_trial":         {float64(l.gcPauseNS) / n / 1e3, "us"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
