package core

// Workspace owns the state every run executes on: the configuration
// (node states plus adjacency rows), the enabled-pair index (bit rows
// up to 64 nodes, the state-class census above), the scheduler-gap
// rate table, and the RNG. Run builds each piece on first use and
// rebuilds it in place on every later run, so a campaign worker that
// keeps one workspace for its whole job stream, passing it through
// Options.Workspace, runs every trial after the first without
// per-trial allocation (a new workspace would churn the adjacency rows
// plus the index's per-node arrays through the allocator on every
// trial). A run with no workspace gets a new one of its own.
//
// Reuse preserves determinism exactly: every in-place rebuild produces
// the same bytes a first build would (same scan orders, same RNG
// stream after Reseed), and the gap table, the one piece whose
// contents outlive a run, holds rates that are a function of (enabled
// count, pair universe) alone and is emptied when the universe
// changes. So a run on a reused workspace is bit-identical to a run on
// a new one with the same (protocol, n, seed, scheduler, engine) —
// pinned by TestWorkspaceBitIdentical and TestWorkspaceGapTableSwitches.
//
// Ownership: Result.Final returned from a run on a caller's workspace
// points into the workspace and is valid only until the workspace's
// next run begins; callers that retain it across runs must Clone it
// first. (Passing it back as the next run's Options.Initial on the same
// workspace is fine — the copy happens before the state is reused.)
//
// A Workspace is not safe for concurrent use: one per goroutine.
type Workspace struct {
	cfg    *Config
	census *batchIndex
	bits   *bitIndex
	rng    *RNG
	gaps   *gapLaw

	// censusOnly serves every run from the census index, whatever its
	// population: the seam through which this package's tests and
	// benchmarks compare the two indexes at the same n.
	censusOnly bool
}

// NewWorkspace returns an empty workspace; every piece is built lazily
// on the first run that needs it.
func NewWorkspace() *Workspace { return &Workspace{} }

// config returns the workspace configuration prepared for a run of
// protocol p on n nodes: a copy of initial when non-nil, the all-q0
// configuration otherwise. The backing arrays are reused whenever the
// population size matches the previous run's.
func (ws *Workspace) config(p *Protocol, n int, initial *Config) *Config {
	switch {
	case ws.cfg == nil || ws.cfg.n != n:
		if initial != nil {
			ws.cfg = initial.Clone()
		} else {
			ws.cfg = NewConfig(p, n)
		}
	case initial != nil:
		ws.cfg.copyFrom(initial)
	default:
		ws.cfg.resetDefault(p)
	}
	return ws.cfg
}

// rngFor returns the workspace RNG reseeded for the run — the same
// stream a fresh NewRNG(seed) would emit.
func (ws *Workspace) rngFor(seed uint64) *RNG {
	if ws.rng == nil {
		ws.rng = NewRNG(seed)
	} else {
		ws.rng.Reseed(seed)
	}
	return ws.rng
}

// index returns the enabled-pair index the sparse and batch engines
// run on, built for cfg on first use and rebuilt in place after that:
// the bit-row index for populations of at most bitRowNodes nodes —
// the one place a run's population picks its index — and the
// state-class census above, or at every n on a census-only workspace.
// Only the index the run uses is built.
func (ws *Workspace) index(cfg *Config) enabledIndex {
	if cfg.n <= bitRowNodes && !ws.censusOnly {
		if ws.bits == nil {
			ws.bits = new(bitIndex)
		}
		ws.bits.reset(cfg)
		return ws.bits
	}
	if ws.census == nil {
		ws.census = newBatchIndex(cfg)
	} else {
		ws.census.reset(cfg)
	}
	return ws.census
}

// gapTable returns the workspace's scheduler-gap rate table, built on
// first use. It is not reset here: indexedLoop rebinds it to each run's
// pair universe and keeps the rates when the universe is unchanged.
func (ws *Workspace) gapTable() *gapLaw {
	if ws.gaps == nil {
		ws.gaps = new(gapLaw)
	}
	return ws.gaps
}
