package core

// Metrics is the per-run engine telemetry attached to every Result.
// All fields except WallNS are deterministic in (protocol, n, seed,
// scheduler, engine, faults) and independent of workspace reuse. The
// counters are plain increments on paths the engines already execute,
// so maintaining them costs no extra branches in the hot loops and
// nothing scales with n.
type Metrics struct {
	// WallNS is the run's wall-clock time in nanoseconds — the one
	// nondeterministic field.
	WallNS int64 `json:"wall_ns,omitempty"`

	// Landings counts the scheduler draws the engine actually
	// simulated: every step on the baseline path, only the geometric
	// landings on the indexed paths. Landings + SkippedSteps = Steps
	// on every engine (SkippedSteps is zero on the baseline).
	Landings int64 `json:"landings,omitempty"`
	// SkippedSteps counts the draws collapsed by the geometric skip —
	// draws that provably hit disabled pairs and were never simulated.
	SkippedSteps int64 `json:"skipped_steps,omitempty"`
	// SkipBatches counts the geometric batches those skips arrived in.
	SkipBatches int64 `json:"skip_batches,omitempty"`

	// DetectorChecks counts evaluations of the stability predicate
	// (including O(1) gate evaluations on the indexed paths).
	DetectorChecks int64 `json:"detector_checks,omitempty"`

	// SampleRejections counts rejected candidate draws in the census
	// index's class-internal rejection sampling. Zero on the baseline
	// path and on the bit-row index, which draws without rejection.
	SampleRejections int64 `json:"sample_rejections,omitempty"`

	// BucketDraws counts the pure-path landings the batch engine drew
	// inside a census-frozen stretch: run-kernel landings plus landings
	// right after a census-preserving landing (the name stays for the
	// records and exports that carry it); ExactFallbackLandings counts
	// the landings it stepped exactly instead — every landing of the
	// run when a sink, an injector, a topology or an unbatchable
	// protocol forced the exact path. Zero on the other engines.
	BucketDraws           int64 `json:"bucket_draws,omitempty"`
	ExactFallbackLandings int64 `json:"exact_fallback_landings,omitempty"`

	// CollapsedLandings counts the landings the batch engine resolved
	// analytically through the swap-run collapse — landings that were
	// never individually simulated (they are not in Landings or
	// BucketDraws). On every engine
	// Landings + SkippedSteps + CollapsedLandings = Steps.
	// FastForwardEpochs counts the analytic jumps those landings
	// arrived in: one per collapse epoch, including the final
	// hypergeometric jump when the step budget ends inside a run.
	CollapsedLandings int64 `json:"collapsed_landings,omitempty"`
	FastForwardEpochs int64 `json:"fast_forward_epochs,omitempty"`

	// FaultFirings counts scenario fault firings reported through
	// Mutator.Fired; FaultNodeWrites and FaultEdgeWrites count the
	// out-of-band state and edge writes those firings actually applied
	// (a firing whose victim pool is empty applies nothing).
	FaultFirings    int64 `json:"fault_firings,omitempty"`
	FaultNodeWrites int64 `json:"fault_node_writes,omitempty"`
	FaultEdgeWrites int64 `json:"fault_edge_writes,omitempty"`
}
