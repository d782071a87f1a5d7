package core

// Metrics is the per-run engine telemetry attached to every Result.
// All fields except WallNS are deterministic in (protocol, n, seed,
// scheduler, engine, faults) and independent of workspace reuse —
// except the setup counters (IndexBuilds, WorkspaceResets), which by design describe how this particular run's
// state was prepared. The counters are plain increments on paths the
// engines already execute, so maintaining them costs no extra branches
// in the hot loops and nothing scales with n.
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

	// IndexBuilds counts the O(n + m + |Q|²) state-class census builds
	// this run paid (fresh or in place in a workspace). Baseline runs
	// carry no index and report zero.
	IndexBuilds int64 `json:"index_builds,omitempty"`

	// SampleRejections counts rejected candidate draws in the sparse
	// engine's class-internal rejection sampling; SampleFallbacks
	// counts the exact-walk fallbacks taken when active edges saturate
	// a class. Zero on the baseline path.
	SampleRejections int64 `json:"sample_rejections,omitempty"`
	SampleFallbacks  int64 `json:"sample_fallbacks,omitempty"`

	// BucketDraws counts the landings the batch engine drew from a
	// bucket plan (one multivariate allocation covering a census-frozen
	// stretch); ExactFallbackLandings counts the landings it stepped
	// exactly instead — every landing of the run when a sink, an
	// injector, a topology or an unbatchable protocol forced the exact
	// path. Zero on the other engines.
	BucketDraws           int64 `json:"bucket_draws,omitempty"`
	ExactFallbackLandings int64 `json:"exact_fallback_landings,omitempty"`

	// CollapsedLandings counts the landings the batch engine resolved
	// analytically through the swap-run collapse — landings that were
	// never individually simulated (they are not in Landings or
	// BucketDraws). On every engine
	// Landings + SkippedSteps + CollapsedLandings = Steps.
	// FastForwardEpochs counts the analytic jumps those landings
	// arrived in: one per collapsed chunk, including the final
	// hypergeometric jump when the step budget ends inside a run.
	CollapsedLandings int64 `json:"collapsed_landings,omitempty"`
	FastForwardEpochs int64 `json:"fast_forward_epochs,omitempty"`

	// WorkspaceResets counts the in-place component resets
	// (configuration, index, RNG) the run's workspace performed instead
	// of fresh allocations. Zero without Options.Workspace.
	WorkspaceResets int64 `json:"workspace_resets,omitempty"`

	// FaultFirings counts scenario fault firings reported through
	// Mutator.Fired; FaultNodeWrites and FaultEdgeWrites count the
	// out-of-band state and edge writes those firings actually applied
	// (a firing whose victim pool is empty applies nothing).
	FaultFirings    int64 `json:"fault_firings,omitempty"`
	FaultNodeWrites int64 `json:"fault_node_writes,omitempty"`
	FaultEdgeWrites int64 `json:"fault_edge_writes,omitempty"`
}
