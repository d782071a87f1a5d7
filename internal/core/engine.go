package core

import (
	"errors"
	"fmt"
	"time"
)

// Trigger selects when a detector's Stable predicate is evaluated.
type Trigger int

// Trigger values. Interval checking exists for predicates that are
// expensive or that can become true on ineffective suffixes (full
// quiescence); the cheaper triggers piggyback on effective steps, which
// is exact for predicates that can only become true when something
// changed.
const (
	// TriggerEffective evaluates after every effective step.
	TriggerEffective Trigger = iota + 1
	// TriggerEdge evaluates only after steps that changed an edge.
	TriggerEdge
	// TriggerInterval evaluates every Options.CheckInterval steps.
	TriggerInterval
)

// Gate declares that a detector's Stable predicate is equivalent to a
// counter condition the enabled-pair index answers, letting the
// indexed engines skip the O(n²) scan: the census keeps both counts,
// and the bit-row index keeps the enabled count and counts the
// edge-enabled pairs from its state masks when asked. The baseline
// engine ignores gates and always calls Stable.
type Gate int

// Gate values.
const (
	// GateNone means Stable must be called; the default for custom
	// detectors.
	GateNone Gate = iota
	// GateQuiescence marks Stable ⇔ Config.Quiescent — answered by
	// "no enabled pairs" on the indexed paths.
	GateQuiescence
	// GateEdgeQuiescence marks Stable ⇔ Config.EdgeQuiescent — answered
	// by "no edge-effective enabled pairs" on the indexed paths.
	GateEdgeQuiescence
)

// Detector decides when a run has stabilized. Stable must return true
// only for configurations whose output graph provably never changes
// again under the protocol (the paper proves such predicates for every
// protocol it presents).
//
// A TriggerEffective predicate runs after every effective step, so on
// the indexed engines it can cost more than the step itself. Reject
// first on the Config's O(1) counters (Count, ActiveEdges, Degree) and
// build nothing until they pass; keep the verdict exact, since a
// predicate that answers differently on any configuration changes the
// run. Stable may be called from concurrent runs sharing one Detector,
// so per-call scratch belongs to the call, not the closure.
type Detector struct {
	Stable  func(cfg *Config) bool
	Trigger Trigger
	// Gate, when non-zero, lets the indexed engines replace Stable with
	// an equivalent counter check. Set it only when the equivalence is
	// exact; the prebuilt quiescence detectors do.
	Gate Gate
}

// due reports whether the detector's trigger fires after a step: step
// is its 1-based position, effective and edgeChanged its outcome. An
// unset Trigger fires like TriggerEffective.
func (d *Detector) due(step, interval int64, effective, edgeChanged bool) bool {
	switch d.Trigger {
	case TriggerEdge:
		return edgeChanged
	case TriggerInterval:
		return step%interval == 0
	default:
		return effective
	}
}

// stableOn evaluates the detector against cfg, the configuration ix is
// bound to: a gated detector is answered from the index's enabled-pair
// counts, any other through its Stable predicate.
func (d *Detector) stableOn(ix enabledIndex, cfg *Config) bool {
	switch d.Gate {
	case GateQuiescence:
		return ix.enabledPairs() == 0
	case GateEdgeQuiescence:
		return ix.edgeEnabledPairs() == 0
	default:
		return d.Stable(cfg)
	}
}

// QuiescenceDetector detects full quiescence: no effective transition
// applies to any pair. Sufficient for protocols whose stable
// configurations are completely silent (Global-Star, Cycle-Cover, all
// Section 3.3 processes). The baseline engine evaluates it with the
// O(n²) scan every check interval; the indexed engines answer it from
// the enabled-pair count in O(1).
func QuiescenceDetector() Detector {
	return Detector{
		Stable:  func(cfg *Config) bool { return cfg.Quiescent() },
		Trigger: TriggerInterval,
		Gate:    GateQuiescence,
	}
}

// EdgeQuiescenceDetector detects edge quiescence: no applicable
// transition changes an edge. This is not sufficient for stability in
// general (later node-state changes may re-enable edge changes), so use
// it only for protocols where edge quiescence is known to be absorbing.
// Like QuiescenceDetector it is a gate on the indexed paths: O(1) on
// the census, O(n + |Q|²) word operations on the bit-row index.
func EdgeQuiescenceDetector() Detector {
	return Detector{
		Stable:  func(cfg *Config) bool { return cfg.EdgeQuiescent() },
		Trigger: TriggerInterval,
		Gate:    GateEdgeQuiescence,
	}
}

// Options configures a run.
type Options struct {
	// Seed feeds the deterministic RNG. Runs with equal
	// (protocol, n, seed, scheduler, engine) are identical; the two
	// engines consume randomness differently, so they agree in
	// distribution, not step for step.
	Seed uint64
	// Scheduler defaults to the uniform random scheduler.
	Scheduler Scheduler
	// Engine selects the execution path. The default EngineAuto runs
	// the batch engine under the uniform scheduler up to 2²⁰ nodes and
	// the baseline loop otherwise. The other values force a path
	// (forcing an indexed path under a non-uniform scheduler is an
	// error).
	Engine Engine
	// Detector defaults to QuiescenceDetector.
	Detector Detector
	// MaxSteps aborts the run (Converged=false) when exceeded.
	// Defaults to DefaultMaxSteps(n).
	MaxSteps int64
	// CheckInterval is the period, in scheduler steps, of
	// TriggerInterval detection and of Stop polling on the baseline
	// engine; 0 means DefaultCheckInterval(n).
	CheckInterval int64
	// Topology, when non-nil, restricts the interaction graph to its
	// permitted pairs: the uniform scheduler draws uniformly over them,
	// round-robin and permutation schedules cycle over them, and the
	// indexed engines count enabled pairs within the permitted set (the
	// batch engine exact-steps, bit-identical to EngineSparse). Nil is
	// the paper's complete interaction graph. The topology's population
	// must equal n; one that permits no pair ends the run at step 0,
	// converged iff the detector accepts the initial configuration (the
	// n = 1 case). Rate-based schedulers (weighted, biased) reject a
	// topology, and any Initial configuration's active edges must all be
	// permitted pairs — the engines rely on active ⊆ permitted to stay
	// consistent.
	Topology *Topology
	// Initial, when non-nil, replaces the all-q0 initial configuration
	// (e.g. Graph-Replication's input graph). It is cloned, not
	// mutated.
	Initial *Config
	// Events, when non-nil, receives the run's structured event stream
	// (see EventSink): run start/end, effective steps with before/after
	// states, geometric-skip batches, fault firings and writes, and
	// detector verdicts. Attaching a sink never changes the run's
	// results; with no sink the engines pay a nil check and nothing
	// else.
	Events EventSink
	// Stop, when non-nil, is polled once immediately and then
	// periodically: every CheckInterval steps on the baseline engine;
	// at the head of each loop iteration on the indexed engines, that
	// is after every landing, or after each collapse or run-kernel pass
	// of at most kernelPass = 2¹⁶ landings. When it returns true the
	// run aborts early with Converged=false and Stopped=true. It is how
	// callers plug in context cancellation.
	Stop func() bool
	// Injector, when non-nil, is the scenario layer's engine hook: an
	// external event source (fault injection) whose events fire at
	// identical step positions on every engine and mutate the
	// configuration through a Mutator so the indexed paths stay
	// consistent incrementally. See Injector. Ignored when n == 1
	// (no pair ever interacts). Injectors are stateful; supply a fresh
	// one per run.
	Injector Injector
	// Workspace holds the run's state — the configuration, the
	// enabled-pair index and the RNG — which Run rebuilds in place, so
	// repeated runs on one workspace allocate nothing in the steady
	// state. Nil runs on a new workspace of the run's own, whose first
	// build allocates what the run needs. Every result bit is the same either way (see
	// Workspace). With a caller's workspace, Result.Final is borrowed:
	// it is valid only until the workspace's next run, and callers who
	// retain it must Clone it.
	Workspace *Workspace
}

// Result reports a run's outcome and metrics.
type Result struct {
	// Converged reports whether the detector fired before MaxSteps.
	Converged bool
	// Stopped reports whether Options.Stop aborted the run before the
	// detector fired or the step budget ran out.
	Stopped bool
	// Steps is the number of interactions executed when stabilization
	// was detected (or MaxSteps on abort).
	Steps int64
	// ConvergenceTime is the paper's running time: the last step at
	// which the output graph (active edges plus Qout membership)
	// changed. Zero if the initial configuration was already stable.
	ConvergenceTime int64
	// EffectiveSteps counts steps on which any state changed.
	EffectiveSteps int64
	// EdgeChanges counts steps on which an edge changed.
	EdgeChanges int64
	// Engine records the execution path that produced this result
	// (never EngineAuto).
	Engine Engine
	// Metrics is the run's engine telemetry: wall time plus the
	// landing/skip/detector/sampling/fault counters. Every field except
	// WallNS is deterministic in the run parameters.
	Metrics Metrics
	// Final is the final configuration. Runs with Options.Workspace set
	// borrow it from the workspace: it is valid until the workspace's
	// next run begins, so callers retaining it longer (or mutating it)
	// must Clone it first. Without a workspace the caller owns it
	// outright.
	Final *Config
}

// ParallelTime converts the sequential convergence time into the
// parallel-time estimate of the paper's footnote 5: with Θ(n)
// interactions happening in parallel per round, parallel time is
// sequential time divided by n.
func (r Result) ParallelTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(r.ConvergenceTime) / float64(n)
}

// DefaultMaxSteps returns the default step budget for population size
// n: generous enough for every protocol in the paper at the sizes used
// in tests and benchmarks (the slowest is Ω(n⁴)–O(n⁵)).
func DefaultMaxSteps(n int) int64 {
	if n < 4 {
		return 1 << 20
	}
	const ceiling = int64(1) << 40
	nn := int64(n)
	// 200·n⁴ exceeds the ceiling from n = 273 on; comparing first also
	// avoids int64 overflow, which at n = 2¹⁶ wraps to exactly zero
	// (2¹⁶ raised to the 4th is 2⁶⁴) and used to produce a zero-step
	// budget.
	if nn > 272 {
		return ceiling
	}
	budget := 200 * nn * nn * nn * nn
	if budget > ceiling {
		return ceiling
	}
	return budget
}

// DefaultCheckInterval returns the period, in scheduler steps, at
// which interval-triggered detectors, and Options.Stop on the baseline
// engine, are polled when Options.CheckInterval is zero: n² clamped to
// [1024, 2²²]. The n² term amortizes an O(n²) stability scan to O(1)
// per step; the floor keeps tiny populations from polling every few
// steps; the ceiling keeps Stop polling — and with it campaign
// cancellation — responsive on large baseline runs, where an uncapped
// n² default (2⁴⁰ steps between polls at n = 2²⁰) would mean the run
// effectively never observes a stop request. The baseline loop and
// the indexed loop share this helper, so the default cannot drift
// between paths.
func DefaultCheckInterval(n int) int64 {
	const ceiling = int64(1) << 22
	interval := int64(n) * int64(n)
	if interval < 1024 {
		interval = 1024
	}
	if interval > ceiling {
		interval = ceiling
	}
	return interval
}

// Run executes the protocol on n nodes until the detector reports
// stability or the step budget is exhausted, dispatching to the
// execution path selected by Options.Engine.
func Run(p *Protocol, n int, opts Options) (Result, error) {
	start := time.Now()
	if n < 1 {
		return Result{}, errors.New("core: population size must be ≥ 1")
	}
	if opts.Initial != nil {
		if opts.Initial.proto != p {
			return Result{}, fmt.Errorf("core: initial configuration belongs to protocol %q, not %q", opts.Initial.proto.Name(), p.Name())
		}
		if opts.Initial.N() != n {
			return Result{}, fmt.Errorf("core: initial configuration has %d nodes, want %d", opts.Initial.N(), n)
		}
	}
	ws := opts.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	cfg := ws.config(p, n, opts.Initial)

	sched := opts.Scheduler
	if sched == nil {
		sched = UniformScheduler{}
	}
	// The restricted-topology contract: matching population, a scheduler
	// that knows how to restrict its draws, and no initial active edge
	// outside the permitted set (the engines' indexes rely on active ⊆
	// permitted). A topology with no pair is valid: the run ends below
	// at step 0. cfg.topo is assigned
	// unconditionally so a reused workspace configuration cannot carry a
	// previous run's topology.
	cfg.topo = opts.Topology
	if t := opts.Topology; t != nil {
		if t.N() != n {
			return Result{}, fmt.Errorf("core: topology has %d nodes, want %d", t.N(), n)
		}
		if !SupportsTopology(sched) {
			return Result{}, fmt.Errorf("core: the %s scheduler does not support a restricted topology", sched.Name())
		}
		if opts.Initial != nil && cfg.activeEdges > 0 {
			badU, badV := -1, -1
			cfg.store.forEach(func(u, v int) {
				if badU < 0 && !t.Contains(u, v) {
					badU, badV = u, v
				}
			})
			if badU >= 0 {
				return Result{}, fmt.Errorf("core: initial configuration has active edge {%d, %d} outside the permitted topology", badU, badV)
			}
		}
	}
	engine := opts.Engine
	switch engine {
	case EngineAuto:
		engine = EngineBaseline
		if uniformSchedule(sched) && n <= maxSparseNodes {
			engine = EngineBatch
		}
	case EngineBaseline:
	case EngineSparse, EngineBatch:
		if !uniformSchedule(sched) {
			return Result{}, fmt.Errorf("core: the %s engine requires the uniform scheduler, not %q", engine, sched.Name())
		}
		if err := engine.ValidateN(n); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("core: unknown engine %d", int(opts.Engine))
	}

	det := opts.Detector
	if det.Stable == nil {
		det = QuiescenceDetector()
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps(n)
	}
	interval := opts.CheckInterval
	if interval <= 0 {
		interval = DefaultCheckInterval(n)
	}

	rng := ws.rngFor(opts.Seed)

	// The run envelope: one EventRunStart before the first draw (Cfg is
	// the initial configuration), one EventRunEnd after the last (Cfg is
	// the final one). ev is the run's one scratch record, reused by every
	// event in between.
	var ev *Event
	if opts.Events != nil {
		ev = &Event{Kind: EventRunStart, Protocol: p.Name(), N: n,
			Seed: opts.Seed, Engine: engine, MaxSteps: maxSteps, Cfg: cfg}
		opts.Events.Event(ev)
	}

	var res Result
	if n == 1 || (cfg.topo != nil && cfg.topo.PairCount() == 0) {
		// No pair can ever interact: the run is its initial
		// configuration, converged iff the detector accepts it.
		res = Result{Final: cfg, Converged: det.Stable(cfg)}
		res.Metrics.DetectorChecks = 1
		emitDetect(opts.Events, ev, 0, res.Converged, cfg)
	} else {
		var ix enabledIndex
		if engine != EngineBaseline {
			ix = ws.index(cfg)
		}
		var mut *Mutator
		if opts.Injector != nil {
			mut = &Mutator{cfg: cfg, ix: ix, events: opts.Events, ev: ev}
		}
		if ix == nil {
			res = baselineLoop(p, cfg, det, opts, sched, maxSteps, interval, rng, mut, ev)
			// Every baseline draw is simulated.
			res.Metrics.Landings = res.Steps
		} else {
			// Swap runs are decided once per run: on for EngineBatch
			// unless the bit-row index serves the run (the run tiers
			// read the census), an event sink or fault injector is
			// attached (those consumers observe individual landings,
			// which the run tiers do not reproduce draw for draw), a
			// restricted topology is set (the run tiers' law tests cover
			// the complete graph only), or the protocol has no
			// census-preserving outcome (Protocol.Batchable — such runs
			// never freeze the census, so exact stepping costs nothing).
			// With runs off the loop steps every landing exactly, so
			// batch's exact route is bit-identical to EngineSparse and
			// counts every landing as exact-stepped.
			census, _ := ix.(*batchIndex)
			runs := engine == EngineBatch && census != nil && opts.Events == nil && opts.Injector == nil && opts.Topology == nil && p.Batchable()
			res = indexedLoop(p, cfg, det, opts, maxSteps, interval, rng, ix, ws.gapTable(), runs, mut, ev)
			if engine == EngineBatch && !runs {
				res.Metrics.ExactFallbackLandings = res.Metrics.Landings
			}
			if census != nil {
				res.Metrics.SampleRejections = census.rejections
			}
		}
		if mut != nil {
			mut.fold(&res.Metrics)
		}
	}
	res.Engine = engine
	res.Metrics.WallNS = time.Since(start).Nanoseconds()
	if opts.Events != nil {
		*ev = Event{Kind: EventRunEnd, Step: res.Steps, Converged: res.Converged,
			EffectiveSteps: res.EffectiveSteps, EdgeChanges: res.EdgeChanges,
			ConvergenceTime: res.ConvergenceTime, Protocol: p.Name(), N: n,
			Seed: opts.Seed, Engine: engine, MaxSteps: maxSteps, Cfg: res.Final}
		opts.Events.Event(ev)
	}
	return res, nil
}

// recordEffective folds one effective step into the run metrics and
// emits it to the event sink. baselineLoop and indexedLoop share it so
// neither the output-change rule nor the step-event payload can drift
// between the engines.
func recordEffective(res *Result, p *Protocol, cfg *Config, events EventSink, ev *Event, step int64, u, v int, beforeU, beforeV State, edgeChanged bool) {
	res.EffectiveSteps++
	// The output graph changes when an edge between two output nodes
	// changes, or when a node enters or leaves Qout.
	outputChanged := edgeChanged && p.IsOutput(cfg.Node(u)) && p.IsOutput(cfg.Node(v))
	if !outputChanged {
		outputChanged = p.IsOutput(beforeU) != p.IsOutput(cfg.Node(u)) ||
			p.IsOutput(beforeV) != p.IsOutput(cfg.Node(v))
	}
	if edgeChanged {
		res.EdgeChanges++
	}
	if outputChanged {
		res.ConvergenceTime = step
	}
	if events != nil {
		edge := false
		if edgeChanged {
			edge = cfg.Edge(u, v)
		}
		*ev = Event{Kind: EventStep, Step: step, U: u, V: v,
			BeforeU: beforeU, BeforeV: beforeV,
			AfterU: cfg.Node(u), AfterV: cfg.Node(v),
			EdgeChanged: edgeChanged, Edge: edge, Cfg: cfg}
		events.Event(ev)
	}
}

// baselineLoop simulates every scheduler draw individually. It is the
// reference implementation the indexed engines are measured against, and
// the only path that supports non-uniform schedulers.
func baselineLoop(p *Protocol, cfg *Config, det Detector, opts Options, sched Scheduler, maxSteps, interval int64, rng *RNG, mut *Mutator, ev *Event) Result {
	res := Result{Final: cfg}

	// Already stable before any step. The indexed paths perform this
	// check themselves, through their O(1) gates.
	res.Metrics.DetectorChecks++
	st := det.Stable(cfg)
	emitDetect(opts.Events, ev, 0, st, cfg)
	if st {
		res.Converged = true
		return res
	}

	// Stop is polled on a countdown (first poll before the first step,
	// then every interval steps) so the hot loop pays one decrement,
	// not a division, per step.
	stopCountdown := int64(1)

	// Scenario faults fire after a step's interaction and stability
	// check; the indexed engines replicate this exact ordering, so a
	// fault plan produces the same event positions on every path.
	inj := opts.Injector
	var nextFault int64
	if inj != nil {
		nextFault = inj.NextEvent(0)
	}

	var step int64
	for step < maxSteps {
		if opts.Stop != nil {
			stopCountdown--
			if stopCountdown <= 0 {
				stopCountdown = interval
				if opts.Stop() {
					res.Stopped = true
					res.Steps = step
					return res
				}
			}
		}
		step++
		u, v := sched.Next(cfg, rng)
		beforeU, beforeV := cfg.Node(u), cfg.Node(v)
		effective, edgeChanged := cfg.Apply(u, v, rng)
		if effective {
			recordEffective(&res, p, cfg, opts.Events, ev, step, u, v, beforeU, beforeV, edgeChanged)
		}

		if det.due(step, interval, effective, edgeChanged) {
			res.Metrics.DetectorChecks++
			st := det.Stable(cfg)
			emitDetect(opts.Events, ev, step, st, cfg)
			if st {
				res.Converged = true
				res.Steps = step
				return res
			}
		}

		// Events at or beyond the budget never fire (the run is over
		// before they could be observed).
		if nextFault > 0 && nextFault <= step && step < maxSteps {
			mut.step = step
			inj.Inject(step, mut)
			nextFault = inj.NextEvent(step)
		}
	}
	res.Steps = maxSteps
	return res
}
