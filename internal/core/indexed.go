package core

import (
	"fmt"
	"math"
)

// Engine selects the execution path of Run.
type Engine int

// Engine values. EngineAuto picks the index-backed batch engine when
// the schedule is the uniform random scheduler (the only schedule
// whose law the skip-sampling argument covers) and the baseline loop
// otherwise; the explicit values force one path, which is how the
// equivalence suite and the speedup benchmarks pin their subjects
// down.
const (
	// EngineAuto lets Run choose: batch under the uniform scheduler for
	// n ≤ 2²⁰, baseline otherwise. A batch run with an event sink or
	// fault injector attached exact-steps (see EngineBatch).
	EngineAuto Engine = iota
	// EngineBaseline forces the step-by-step loop that simulates every
	// scheduler draw individually.
	EngineBaseline
	// EngineSparse forces the state-class engine, whose memory and
	// per-step cost scale with n + m instead of n²; Run errors if the
	// configured scheduler is not uniform.
	EngineSparse
	// EngineBatch forces the batch engine: the sparse engine's loop
	// with swap runs on — runs revealed by one geometric draw inside
	// census-frozen stretches, their analytic collapse, and a
	// deterministic-swap kernel (see indexedLoop). Run errors if the
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

// collapseMin is the swap-run length below which the collapse draws
// (run length, gap total, displacement) cost more than the per-landing
// kernel they replace.
const collapseMin = 8

// kernelPass bounds the landings one collapse or run-kernel pass
// consumes before indexedLoop returns to its head, where opts.Stop is
// polled: a revealed run may span the whole remaining step budget. The
// bound is also every collapse epoch's horizon, so each hypergeometric
// total a strip-exit or budget-cut draw sees stays within 2¹⁶.
const kernelPass = 1 << 16

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

// enabledIndex is what indexedLoop's per-landing path and the Mutator
// read and maintain: the enabled and edge-enabled pair counts, a
// uniformly random enabled pair in uniform orientation with its edge
// bit, and incremental upkeep after every effective interaction and
// every out-of-band write. Workspace.index serves runs of at most
// bitRowNodes nodes from the bit-row index (bitIndex) and larger runs
// from the state-class census (batchIndex), which alone carries the
// swap-run tiers.
type enabledIndex interface {
	enabledPairs() int64
	edgeEnabledPairs() int64
	sample(rng *RNG) (u, v int, edge bool)
	update(u, v int, beforeU, beforeV State, edgeBefore, edgeChanged bool)
	nodeChanged(u int, before State)
	edgeChanged(u, v int)
}

// gapSlots is the size of gapLaw's rate table: a power of two above
// C(64, 2) = 2,016, so every enabled count a bit-row run can reach has
// a slot of its own.
const gapSlots = 2048

// gapLaw is the scheduler-gap law: with m of the total pairs enabled,
// the misses before the next landing are Geometric(m/total), one
// GeometricExp draw at rate −1/ln(1 − m/total). The rate depends on
// (m, total) alone, so it is memoised in a direct-mapped table keyed
// by m (slot m mod gapSlots) that outlives the run: the Workspace owns
// it, and runs of the same pair universe — the trials of one campaign
// point — share every rate computed so far. At n ≤ 64 m changes on
// almost every landing but never exceeds the table; above 64 nodes
// counts share slots, but the last m always sits in its own, so a
// repeated m still finds its rate.
type gapLaw struct {
	total float64 // the pair universe the slots were filled for; 0 before any
	slots [gapSlots]gapSlot
}

// gapSlot holds the rate inv of enabled count m; m = −1 marks an empty
// slot.
type gapSlot struct {
	m   int64
	inv float64
}

// reset binds the table to a run's pair universe. Rates filled for
// another total are stale: since m ≤ total, only the first
// min(total+1, gapSlots) slots can be reached, so only those are
// emptied — slots beyond them are emptied by the reset that makes them
// reachable.
func (g *gapLaw) reset(total float64) {
	if total == g.total {
		return
	}
	g.total = total
	reach := gapSlots
	if total < gapSlots {
		reach = int(total) + 1
	}
	for i := range g.slots[:reach] {
		g.slots[i].m = -1
	}
}

// skip draws the misses before the next landing among m enabled pairs:
// none when m ≥ total, where every draw lands.
func (g *gapLaw) skip(rng *RNG, m int64) int64 {
	fm := float64(m)
	if fm >= g.total {
		return 0
	}
	s := &g.slots[m&(gapSlots-1)]
	if s.m != m {
		s.m = m
		s.inv = -1 / math.Log1p(-fm/g.total)
	}
	return rng.GeometricExp(s.inv)
}

// indexedLoop reproduces the law of the baseline loop under the
// uniform scheduler without simulating the ineffective steps:
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
// Detectors carrying a Gate are evaluated from the index's counts
// (Detector.stableOn) instead of their O(n²) scan predicate; that
// includes the pre-loop already-stable check, so an indexed run never
// pays an O(n²) scan at all.
//
// gaps is the caller's rate table (Workspace.gapTable), rebound to the
// run's pair universe before the first draw: what it held before can
// save a rate computation but never change a draw.
//
// The loop runs on either enabled-pair index; with runs off every
// landing is one sample, one Config.apply and one update. With runs on
// (Run decides once per run, and only for a census-served run) two
// things change. Inside a census-frozen stretch (the last landing left
// every sub-bucket weight unchanged) the run of consecutive landings
// on the heaviest deterministic-swap cell is revealed by one geometric
// draw and consumed by the collapse or the run kernel below. And any
// landing on a deterministic-swap edge class, in the kernel or not,
// goes through batchIndex.swapLanding, which skips the rule lookup,
// the orientation coin and the edge-store reads (a swap is
// orientation-symmetric and its compiled entry consumes no coins, so
// this is the law of Config.Apply with the arithmetic removed).
// Runs-on makes no bit-identity promise against runs-off, only the
// exact law: every draw is an exact-distribution transformation of the
// uniform-scheduler process.
func indexedLoop(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, ix enabledIndex, gaps *gapLaw, runs bool, mut *Mutator, ev *Event) Result {
	n := cfg.n
	// The swap-run tiers read the census directly; Run turns runs on
	// only when the census index serves the run.
	var ci *batchIndex
	if runs {
		ci = ix.(*batchIndex)
	}
	res := Result{Final: cfg}
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

	// stable evaluates the detector (through its gate when it has one)
	// against the configuration frozen at step `at`, counting the
	// check and emitting the verdict. Detect events are emitted at
	// evaluation time, which for interval checks inside a frozen
	// stretch is before the skip batch covering that stretch — the
	// events' Step fields keep the per-position timeline unambiguous.
	stable := func(at int64) bool {
		res.Metrics.DetectorChecks++
		st := det.stableOn(ix, cfg)
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

	gaps.reset(total)

	// Swap runs. While the census is frozen the landing cells are iid
	// categorical(w/m), so the number of consecutive landings on one
	// cell of weight w before the first landing elsewhere is
	// Geometric(1 − w/m) — one GeometricExp draw, unbounded when the
	// cell holds all m enabled pairs. Revealing a run on a
	// deterministic-swap cell unlocks two tiers:
	//
	//   - the analytic collapse, when the cell hosts a single interior
	//     walker (two listed edges sharing a degree-2 endpoint) at
	//     least collapseMin positions from both ends of its strip (the
	//     run is a ±1 walk, free until its first visit to an end —
	//     batchIndex.walkStrip): each epoch of up to kernelPass landings,
	//     cut short only at that first visit, resolves into one
	//     strip-exit draw (stats.StripExit: a displacement, an exact
	//     no-visit test, and a bisection for the first visit when there
	//     is one), one negative-binomial draw for the scheduler gaps
	//     between its landings, and one teleport;
	//   - the run kernel, otherwise (many walkers sharing the cell):
	//     the run's landings are simulated individually — same draws,
	//     same law — but in a tight loop with the cell fixed, skipping
	//     the per-landing cell and detector bookkeeping that provably
	//     does nothing inside a frozen stretch, and patching the index
	//     with the census-invariant applySwapFast surgery.
	//
	// The run length J is revealed by a real sample, so it must be
	// honored exactly: landings the collapse does not absorb go through
	// the kernel with the cell fixed (runLeft), and the landing after
	// the run draws with the run cell excluded (breakerPending) — the
	// run ended precisely because that landing is some other cell. A
	// landing that moves the census ends the run early; that is a
	// stopping time of the landing sequence, so dropping the rest of J
	// and drawing afresh against the new weights preserves the law.
	//
	// Detector transparency: runs are revealed only when landings
	// inside a frozen stretch provably cannot fire the detector —
	// TriggerEdge (a swap changes no edge, so no check happens), or a
	// weight-gated detector (the gate reads enabled/edgeEnabled, which
	// are frozen with the census; the reveal refuses when an
	// edge-quiescence gate is already open). Custom Stable predicates
	// with effective or interval triggers observe the configuration
	// itself and are never collapsed over. Classes whose swap would
	// change the output graph are excluded by swapOut: ConvergenceTime
	// tracks the last output change per landing, which the run tiers do
	// not reproduce. With runs off, frozen never becomes true, so no
	// run is ever revealed.
	frozen := false // runs are on and the last landing left the census unchanged
	var runLeft int64
	runCell := int32(-1)
	breakerPending, breakerAfter := false, false
	collapseGate := det.Trigger == TriggerEdge ||
		det.Gate == GateQuiescence || det.Gate == GateEdgeQuiescence

	var step int64
	for step < maxSteps {
		// The baseline polls Stop every interval steps; here every loop
		// iteration advances at least one landing (or ends the run), and
		// a collapse or run-kernel pass at most kernelPass landings, so
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

		if collapseGate && frozen && runLeft == 0 && !breakerPending &&
			(det.Gate != GateEdgeQuiescence || ci.edgeEnabled > 0) {
			// Runs of every length pay: the analytic tier needs long
			// single-walker runs, but even a length-1 run routes
			// through the run kernel at no extra cost over a
			// per-landing cell draw. The budget caps J: a run cannot
			// outlast it.
			if cell, w := ci.runClass(); w > 0 {
				runCell = cell
				runLeft = min(rng.GeometricExp(1/math.Log(float64(ci.enabled)/float64(w))), maxSteps-step)
				breakerAfter = w < ci.enabled
				breakerPending = runLeft == 0
			}
		}

		if runLeft > 0 {
			limit := min(runLeft, kernelPass)
			if limit >= collapseMin {
				if a, b, ok := ci.walkStrip(runCell, limit); ok {
					if d := min(-a, b); d >= collapseMin {
						// One epoch: the walk runs limit landings or up
						// to its first visit to an end of the strip, a
						// stopping time of the landing sequence, so the
						// rest of the run draws afresh from there. The
						// horizon does not shrink near an end: on
						// Simple-Global-Line's last merge a run visits an
						// end a handful of times, and cuts to c·d² (c from
						// 1 to 64, d the distance to the nearer end)
						// measured no faster than none.
						t, y := rng.StripExit(limit, a, b)
						// The epoch's landings interleave with iid
						// Geometric(m/total) scheduler misses,
						// independent of the cell sequence: their total
						// is one negative-binomial draw.
						span := t
						if fm := float64(ci.enabled); fm < total {
							span += rng.NegBinomial(t, fm/total)
						}
						landed := t
						if rem := maxSteps - step; span > rem {
							// The step budget ends inside the epoch. The
							// span's draw sequence ends with its t-th
							// landing; conditioned on (t, span) the other
							// t−1 landings are uniform among the first
							// span−1 draws, so the landings that fit the
							// budget are hypergeometric, and the walker
							// stands where the exit's path was after
							// that many. The loop then ends at the
							// budget.
							landed = rng.Hypergeometric(rem, t-1, span-1)
							y = rng.StripExitAt(t, y, landed, a, b)
							span = rem
						}
						ci.collapseMove(y)
						step += span
						res.EffectiveSteps += landed
						res.Metrics.CollapsedLandings += landed
						res.Metrics.SkippedSteps += span - landed
						if span > landed {
							res.Metrics.SkipBatches++
						}
						res.Metrics.FastForwardEpochs++
						runLeft -= landed
						breakerPending = runLeft == 0 && breakerAfter
						continue
					}
					// A lone walker near its strip's end: step it a few
					// landings and try the collapse again, rather than
					// kernel-stepping the rest of a possibly unbounded
					// run. The pass keeps the cached walk path
					// (relocateWalker below).
					limit = collapseMin
				}
			}
			// Run kernel: landings that leave the census frozen cannot
			// fire the detector (collapseGate) and their cell is already
			// revealed, so simulate them in a tight loop — real
			// per-landing gap, edge and swap draws, identical in law to
			// the outer path, minus the per-landing cell and detector
			// bookkeeping. A landing that leaves the uniform interior
			// runs the generic index update; if that moves the census
			// the run ends right there — a stopping time of the landing
			// sequence, exactly as on the outer path — and the detector
			// is checked as after an outer swap landing (effective, no
			// edge change), since the new census may open its gate. A
			// pass that reaches the budget ends the loop.
			id := int(runCell >> 1)
			genBefore := ci.gen
			// Metrics are accumulated in locals and flushed once after
			// the loop: the per-landing cost is the two RNG draws and
			// the swap surgery itself.
			var done, skipped, batches int64
			for done < limit && ci.gen == genBefore {
				skip := min(gaps.skip(rng, ci.enabled), maxSteps-step)
				skipped += skip
				if skip > 0 {
					batches++
				}
				if step += skip; step == maxSteps {
					break
				}
				step++
				done++
				ci.swapLanding(id, rng)
			}
			ci.relocateWalker(runCell, done)
			res.Metrics.Landings += done
			res.Metrics.BucketDraws += done
			res.Metrics.SkippedSteps += skipped
			res.Metrics.SkipBatches += batches
			res.EffectiveSteps += done
			runLeft -= done
			if ci.gen == genBefore {
				breakerPending = runLeft == 0 && breakerAfter
				continue
			}
			runLeft, frozen = 0, false
			if det.due(step, interval, true, false) && stable(step) {
				res.Converged = true
				res.Steps = step
				return res
			}
			continue
		}

		// Next landing: skip the geometric run of draws that hit
		// disabled pairs. land = maxSteps+1 encodes "no landing within
		// budget" (also the enabled == 0 case: nothing can ever change
		// again).
		land := maxSteps + 1
		if m := ix.enabledPairs(); m > 0 {
			if skip := gaps.skip(rng, m); skip < maxSteps-step {
				land = step + skip + 1
			}
		}

		// The configuration is frozen from step to the landing, or to a
		// pending event before it: the event interrupts the skip, and
		// redrawing the skip from the post-event enabled count is
		// law-preserving because the geometric distribution is
		// memoryless. Events at or beyond the budget never fire, exactly
		// as on the baseline.
		cut := nextFault > 0 && nextFault < land && nextFault < maxSteps
		until := min(maxSteps, land-1)
		if cut {
			until = nextFault
		}
		// An interval detector whose predicate holds on the frozen
		// stretch fires at its next check point, exactly as the baseline
		// would. The cheap check-point guard runs first so an ungated
		// (possibly O(n²)) predicate is only evaluated when a grid point
		// falls inside the stretch — dense phases never pay for it.
		if det.Trigger == TriggerInterval {
			if s := nextCheck(step, interval); s <= until && stable(s) {
				skipRange(&res, events, ev, step, s)
				res.Converged = true
				res.Steps = s
				return res
			}
		}
		skipRange(&res, events, ev, step, until)
		step = until
		if cut || land > maxSteps {
			// Fire the event at the loop head, or end at the budget.
			continue
		}

		step++
		res.Metrics.Landings++
		var u, v int
		var edge, effective, edgeChanged bool
		var beforeU, beforeV State
		var genBefore uint64
		if runs {
			if frozen {
				res.Metrics.BucketDraws++
			}
			genBefore = ci.gen
			skip := int32(-1)
			if breakerPending {
				skip, breakerPending = runCell, false
			}
			cell := ci.sampleCell(rng, skip)
			// The cell's low bit is the drawn pair's edge state: edge
			// cells hold active edges only, non-edge cells none.
			edge = cell&1 == 1
			if id := int(cell >> 1); edge && ci.swapCell[id] {
				u, v, beforeU, beforeV = ci.swapLanding(id, rng)
				effective = true
			} else {
				u, v = ci.sampleMember(cell, rng)
			}
		} else {
			u, v, edge = ix.sample(rng)
		}
		if !effective { // a swap landing has already applied itself
			beforeU, beforeV = cfg.nodes[u], cfg.nodes[v]
			// An enabled pair can still take an ineffective probabilistic
			// branch; that matches the baseline, which also counts such
			// steps as ineffective.
			if effective, edgeChanged = cfg.apply(u, v, edge, rng); effective {
				ix.update(u, v, beforeU, beforeV, edge, edgeChanged)
			}
		}
		if effective {
			recordEffective(&res, p, cfg, events, ev, step, u, v, beforeU, beforeV, edgeChanged)
		}
		if runs {
			if effective {
				// A manually applied landing may have moved the walker
				// (or restructured its segment) without bumping gen: the
				// cached walk path no longer knows the walker's position.
				ci.wpath.valid = false
			}
			frozen = ci.gen == genBefore
		}

		if det.due(step, interval, effective, edgeChanged) && stable(step) {
			res.Converged = true
			res.Steps = step
			return res
		}
	}
	res.Steps = maxSteps
	return res
}
