package core

import (
	"fmt"
	"math"
)

// Engine selects the execution path of Run.
type Engine int

// Engine values. EngineAuto picks an index-backed path whenever the
// schedule is the uniform random scheduler (the only schedule whose
// law the skip-sampling argument covers) and the baseline loop
// otherwise; the explicit values force one path, which is how the
// equivalence suite and the speedup benchmarks pin their subjects
// down.
const (
	// EngineAuto lets Run choose. Under the uniform scheduler, for
	// n ≤ 2²⁰: batch, or sparse when an event sink or fault injector is
	// attached, since batch would then exact-step, bit-identically to
	// sparse, anyway. Baseline for non-uniform schedulers and for
	// n > 2²⁰.
	EngineAuto Engine = iota
	// EngineBaseline forces the step-by-step loop that simulates every
	// scheduler draw individually.
	EngineBaseline
	// EngineSparse forces the state-class engine, whose memory and
	// per-step cost scale with n + m instead of n²; Run errors if the
	// configured scheduler is not uniform.
	EngineSparse
	// EngineBatch forces the batch engine: the sparse engine's census
	// index plus multivariate bucket plans over census-frozen stretches
	// and a deterministic-swap kernel (see batch.go). Run errors if the
	// configured scheduler is not uniform. With an EventSink, an
	// Injector or a restricted Topology attached it steps exactly,
	// bit-identical to EngineSparse.
	EngineBatch
)

// String returns the engine's flag/spec name.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBaseline:
		return "baseline"
	case EngineSparse:
		return "sparse"
	case EngineBatch:
		return "batch"
	default:
		return fmt.Sprintf("engine#%d", int(e))
	}
}

// ParseEngine resolves a flag/spec name ("auto", "baseline", "sparse",
// "batch"; "" means auto) to an Engine. "fast", the name of a retired
// dense-index engine, still parses as sparse, so older specs, flags,
// checkpoints and traces keep working.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "baseline":
		return EngineBaseline, nil
	case "sparse", "fast":
		return EngineSparse, nil
	case "batch":
		return EngineBatch, nil
	default:
		return EngineAuto, fmt.Errorf("core: unknown engine %q (known: auto, baseline, sparse, batch)", s)
	}
}

// ValidateN reports whether the engine supports a population of n
// nodes — the same caps Run enforces, exposed so spec compilers can
// reject an oversized grid before any trial runs instead of
// collecting per-run failures.
func (e Engine) ValidateN(n int) error {
	switch e {
	case EngineSparse, EngineBatch:
		if n > maxSparseNodes {
			return fmt.Errorf("core: the %s engine supports populations up to %d, got %d", e, maxSparseNodes, n)
		}
	}
	return nil
}

// uniformSchedule reports whether sched draws every pair independently
// and uniformly each step — the precondition for the indexed paths.
func uniformSchedule(sched Scheduler) bool {
	switch sched.(type) {
	case UniformScheduler, *UniformScheduler:
		return true
	default:
		return false
	}
}

// nextCheck returns the first TriggerInterval check point strictly
// after step.
func nextCheck(step, interval int64) int64 {
	return (step/interval + 1) * interval
}

// runSparse is the state-class engine: runIndexed over the census
// index (O(n + m + |Q|²) memory, O(deg + |Q|) update per effective
// step, O(1) expected sampling). It simulates the same law as the
// baseline; only the cost of a step differs.
func runSparse(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG) (Result, error) {
	res, err := runIndexed(p, cfg, det, opts, maxSteps, interval, rng, opts.Workspace.batchIndex(cfg), EngineSparse)
	res.Metrics.IndexBuilds = 1
	return res, err
}

// runIndexed is the exact indexed loop behind EngineSparse and the
// batch engine's exact route. It reproduces the law of the baseline
// loop under the uniform scheduler without simulating the ineffective
// steps:
//
//   - each scheduler draw hits an enabled pair with probability
//     m/|E_I| (m enabled pairs of n(n−1)/2), independently per step, so
//     the run of misses before the next enabled hit is
//     Geometric(m/|E_I|) — drawn in O(1) instead of simulated;
//   - conditioned on hitting an enabled pair, the pair is uniform over
//     the enabled set — sampled from the index;
//   - skipped steps are exactly the draws on disabled pairs, which by
//     definition change nothing, so every metric (ConvergenceTime,
//     EffectiveSteps, EdgeChanges) and every step event sees the same
//     distribution over (step, pair, outcome) sequences;
//   - between two landings the configuration is frozen, so an
//     interval-triggered detector whose predicate holds fires at the
//     next multiple of the check interval — computed, not simulated —
//     which preserves the law of Result.Steps as well.
//
// Detectors carrying a Gate are evaluated from the index's O(1)
// counters instead of their O(n²) scan predicate; that includes the
// pre-loop already-stable check, so an indexed run never pays an O(n²)
// scan at all.
//
// The caller (Run) has already resolved defaults and cloned the
// initial configuration. runIndexed wraps indexedLoop to fold the
// mutator's fault tallies and the index's sampling effort into the
// metrics once, at the single exit.
func runIndexed(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, ix *batchIndex, engine Engine) (Result, error) {
	var ev *Event
	if opts.Events != nil {
		ev = new(Event)
	}
	var mut *Mutator
	if opts.Injector != nil {
		mut = &Mutator{cfg: cfg, ix: ix, events: opts.Events, ev: ev}
	}
	res := indexedLoop(p, cfg, det, opts, maxSteps, interval, rng, ix, engine, mut, ev)
	if mut != nil {
		mut.fold(&res.Metrics)
	}
	res.Metrics.SampleRejections, res.Metrics.SampleFallbacks = ix.rejections, ix.fallbacks
	return res, nil
}

// skipRange folds the geometrically skipped draws at positions
// from+1 … to into the metrics and emits them as one skip-batch event
// (no-op when the range is empty). Every position a skip batch covers
// is a draw that provably hit a disabled pair, so expanding the batches
// reconstructs the baseline's exact per-position timeline.
func skipRange(res *Result, events EventSink, ev *Event, from, to int64) {
	count := to - from
	if count <= 0 {
		return
	}
	res.Metrics.SkippedSteps += count
	res.Metrics.SkipBatches++
	emitSkip(events, ev, from+1, count)
}

func indexedLoop(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, ix *batchIndex, engine Engine, mut *Mutator, ev *Event) Result {
	n := cfg.n
	res := Result{Final: cfg, Engine: engine}
	// total is the scheduler's per-draw pair universe: n(n−1)/2 on the
	// complete interaction graph, the permitted-pair count under a
	// restricted topology. Either way it is a run constant, so the
	// geometric-skip law below (miss run ~ Geometric(m/total)) is exact
	// per census-frozen stretch — the skip argument never depended on
	// the universe being the complete graph, only on it being fixed.
	total := float64(n) * float64(n-1) / 2
	if t := cfg.topo; t != nil {
		total = float64(t.PairCount())
	}
	events := opts.Events

	// stable evaluates the detector (through its O(1) gate when it has
	// one) against the configuration frozen at step `at`, counting the
	// check and emitting the verdict. Detect events are emitted at
	// evaluation time, which for interval checks inside a frozen
	// stretch is before the skip batch covering that stretch — the
	// events' Step fields keep the per-position timeline unambiguous.
	stable := func(at int64) bool {
		res.Metrics.DetectorChecks++
		var st bool
		switch det.Gate {
		case GateQuiescence:
			st = ix.enabled == 0
		case GateEdgeQuiescence:
			st = ix.edgeEnabled == 0
		default:
			st = det.Stable(cfg)
		}
		emitDetect(events, ev, at, st, cfg)
		return st
	}

	if stable(0) {
		// Already stable before any step, matching the baseline's
		// pre-loop check.
		res.Converged = true
		return res
	}

	// Scenario faults: the injector announces the step of its next
	// event; skips are cut short there so events land at the same step
	// positions as on the baseline path, and the Mutator routes every
	// mutation through the index.
	inj := opts.Injector
	var nextFault int64
	if inj != nil {
		nextFault = inj.NextEvent(0)
	}

	// Geometric-skip memo: ln(1 − m/total) is a pure function of the
	// enabled-pair count m, and m repeats heavily between effective
	// steps (most landings change it by at most a few units, and phases
	// often hold it constant), so the logarithm from the previous
	// landing is reused whenever m is unchanged — saving one of the two
	// math.Log calls per landing. The drawn variate is identical, so
	// runs are unchanged bit for bit.
	memoM := int64(-1)
	var memoLn float64

	var step int64
	for step < maxSteps {
		// The baseline polls Stop every interval steps; here every loop
		// iteration advances at least one landing (or ends the run), so
		// polling per iteration is at least as responsive at negligible
		// relative cost.
		if opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			res.Steps = step
			return res
		}

		// Fire the events due at the current step (reached by the
		// fault-horizon cut below, or by a landing at the event step).
		for nextFault > 0 && nextFault <= step {
			mut.step = step
			inj.Inject(step, mut)
			nextFault = inj.NextEvent(step)
		}

		// Next landing: skip the geometric run of draws that hit
		// disabled pairs. land = maxSteps+1 encodes "no landing within
		// budget" (also the enabled == 0 case: nothing can ever change
		// again).
		land := maxSteps + 1
		if m := ix.enabled; m > 0 {
			var skip int64
			if fm := float64(m); fm >= total {
				skip = 0 // every draw lands; Geometric(p ≥ 1) draws nothing
			} else {
				if m != memoM {
					memoM = m
					memoLn = math.Log1p(-fm / total)
				}
				skip = rng.GeometricLn(memoLn)
			}
			if skip < maxSteps-step {
				land = step + skip + 1
			}
		}

		// A pending event before the landing interrupts the skip: the
		// configuration is frozen up to the event step, so interval
		// detection on that stretch matches the baseline, and redrawing
		// the skip from the post-event enabled count is law-preserving
		// because the geometric distribution is memoryless. Events at or
		// beyond the budget never fire, exactly as on the baseline.
		if nextFault > 0 && nextFault < land && nextFault < maxSteps {
			if det.Trigger == TriggerInterval {
				if s := nextCheck(step, interval); s <= nextFault && stable(s) {
					skipRange(&res, events, ev, step, s)
					res.Converged = true
					res.Steps = s
					return res
				}
			}
			skipRange(&res, events, ev, step, nextFault)
			step = nextFault
			continue
		}

		// Between step and the landing the configuration is frozen: an
		// interval detector whose predicate holds now fires at the next
		// check point, exactly as the baseline would. The cheap
		// check-point guard runs first so an ungated (possibly O(n²))
		// predicate is only evaluated when a grid point actually
		// precedes the landing — dense phases never pay for it.
		if det.Trigger == TriggerInterval {
			if s := nextCheck(step, interval); s <= maxSteps && s < land && stable(s) {
				skipRange(&res, events, ev, step, s)
				res.Converged = true
				res.Steps = s
				return res
			}
		}
		if land > maxSteps {
			skipRange(&res, events, ev, step, maxSteps)
			res.Steps = maxSteps
			return res
		}

		skipRange(&res, events, ev, step, land-1)
		step = land
		res.Metrics.Landings++
		u, v := ix.Sample(rng)
		beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
		// An enabled pair can still take an ineffective probabilistic
		// branch; that matches the baseline, which also counts such
		// steps as ineffective.
		effective, edgeChanged := cfg.Apply(u, v, rng)
		if effective {
			ix.Update(u, v, beforeU, beforeV, edgeChanged)
			recordEffective(&res, p, cfg, events, ev, step, u, v, beforeU, beforeV, edgeChanged)
		}

		check := false
		switch det.Trigger {
		case TriggerEffective:
			check = effective
		case TriggerEdge:
			check = edgeChanged
		case TriggerInterval:
			check = step%interval == 0
		default:
			check = effective
		}
		if check && stable(step) {
			res.Converged = true
			res.Steps = step
			return res
		}
	}
	res.Steps = maxSteps
	return res
}
