package core

// Workspace owns the reusable scratch state of repeated runs: the
// configuration (node states plus adjacency rows), the state-class
// census index, and the RNG. A campaign worker keeps one workspace for
// its whole job stream and passes it through Options.Workspace; every
// trial after the first then runs without per-trial allocation — the
// backing arrays are reset in place instead of reallocated, which is
// what lets campaign throughput stop scaling with setup cost (a fresh
// trial otherwise churns the adjacency rows plus the index's per-node
// arrays through the allocator).
//
// Reuse preserves determinism exactly: every reset path rebuilds the
// same bytes a fresh build would produce (same scan orders, same RNG
// stream after Reseed), so a workspace-reused run is bit-identical to
// a fresh-allocation run with the same (protocol, n, seed, scheduler,
// engine) — pinned by TestWorkspaceBitIdentical.
//
// Ownership: Result.Final returned from a workspace-backed run points
// into the workspace and is valid only until the workspace's next run
// begins; callers that retain it across runs must Clone it first.
// (Passing it back as the next run's Options.Initial on the same
// workspace is fine — the copy happens before the state is reused.)
//
// A Workspace is not safe for concurrent use: one per goroutine.
type Workspace struct {
	cfg   *Config
	batch *batchIndex
	rng   *RNG

	// resets counts the in-place component reuses (configuration
	// reset/copy, RNG reseed, index reset) performed so far; Run reports
	// the per-run delta as Result.Metrics.WorkspaceResets. A fresh build
	// of a component does not count — the steady state of a campaign
	// worker is three resets per trial and zero allocations.
	resets int64
}

// NewWorkspace returns an empty workspace; every piece is built lazily
// on the first run that needs it.
func NewWorkspace() *Workspace { return &Workspace{} }

// config returns the workspace configuration prepared for a run of
// protocol p on n nodes: a copy of initial when non-nil, the all-q0
// configuration otherwise. The backing arrays are reused whenever the
// population size matches the previous run's.
func (ws *Workspace) config(p *Protocol, n int, initial *Config) *Config {
	if ws.cfg == nil || ws.cfg.n != n {
		if initial != nil {
			ws.cfg = initial.Clone()
		} else {
			ws.cfg = NewConfig(p, n)
		}
		return ws.cfg
	}
	ws.resets++
	if initial != nil {
		ws.cfg.copyFrom(initial)
	} else {
		ws.cfg.resetDefault(p)
	}
	return ws.cfg
}

// rngFor returns the workspace RNG reseeded for the run — the same
// stream a fresh NewRNG(seed) would emit.
func (ws *Workspace) rngFor(seed uint64) *RNG {
	if ws.rng == nil {
		ws.rng = NewRNG(seed)
		return ws.rng
	}
	ws.resets++
	ws.rng.Reseed(seed)
	return ws.rng
}

// batchIndex returns the state-class census index the sparse and batch
// engines run on, rebound to cfg: the workspace's, rebuilt in place,
// or a fresh one when ws is nil. Either way the build is
// O(n + m + |Q|²).
func (ws *Workspace) batchIndex(cfg *Config) *batchIndex {
	if ws == nil {
		return newBatchIndex(cfg)
	}
	if ws.batch == nil {
		ws.batch = newBatchIndex(cfg)
	} else {
		ws.resets++
		ws.batch.reset(cfg)
	}
	return ws.batch
}
