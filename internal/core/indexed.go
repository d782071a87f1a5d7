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
// bound also keeps a collapse's displacement and budget-cut draws
// O(kernelPass) on an all-safe cycle, where walkChunk imposes none.
const kernelPass = 1 << 16

// runIndexed is the engine behind EngineSparse and EngineBatch: one
// indexedLoop over the census index (O(n + m + |Q|²) memory,
// O(deg + |Q|) update per effective step, O(1) expected sampling),
// with swap runs on or off. It decides that once per run: runs are on
// for EngineBatch unless an EventSink or fault Injector is attached
// (those consumers observe individual landings, which the run tiers do
// not reproduce draw for draw), a restricted topology is set (the run
// tiers' law tests cover the complete graph only), or the protocol has
// no census-preserving outcome (Protocol.Batchable — such runs never
// freeze the census, so exact stepping costs nothing). With runs off
// the loop steps every landing exactly, so batch's exact route is
// bit-identical to EngineSparse; Result.Engine still reports
// EngineBatch and Metrics.ExactFallbackLandings counts every landing
// as exact-stepped.
//
// The caller (Run) has already resolved defaults and cloned the
// initial configuration. runIndexed folds the mutator's fault tallies
// and the index's sampling effort into the metrics once, at the single
// exit.
func runIndexed(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, engine Engine) Result {
	runs := engine == EngineBatch && opts.Events == nil && opts.Injector == nil && opts.Topology == nil && p.Batchable()
	ix := opts.Workspace.batchIndex(cfg)
	var ev *Event
	if opts.Events != nil {
		ev = new(Event)
	}
	var mut *Mutator
	if opts.Injector != nil {
		mut = &Mutator{cfg: cfg, ix: ix, events: opts.Events, ev: ev}
	}
	res := indexedLoop(p, cfg, det, opts, maxSteps, interval, rng, ix, runs, mut, ev)
	res.Engine = engine
	res.Metrics.IndexBuilds = 1
	if engine == EngineBatch && !runs {
		res.Metrics.ExactFallbackLandings = res.Metrics.Landings
	}
	if mut != nil {
		mut.fold(&res.Metrics)
	}
	res.Metrics.SampleRejections, res.Metrics.SampleFallbacks = ix.rejections, ix.fallbacks
	return res
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
// Detectors carrying a Gate are evaluated from the index's O(1)
// counters instead of their O(n²) scan predicate; that includes the
// pre-loop already-stable check, so an indexed run never pays an O(n²)
// scan at all.
//
// With runs on (see runIndexed) two things change. Inside a
// census-frozen stretch (the last landing left every sub-bucket weight
// unchanged) the run of consecutive landings on the heaviest
// deterministic-swap cell is revealed by one geometric draw and
// consumed by the collapse or the run kernel below. And any landing on
// a deterministic-swap edge class skips the rule lookup, the orientation
// coin and the edge-store reads: the two endpoint states are exchanged
// in place and the index patched by applySwap (a swap is
// orientation-symmetric and its compiled entry consumes no coins, so
// the kernel is the law of Config.Apply with the arithmetic removed).
// Runs-on makes no bit-identity promise against runs-off, only the
// exact law: every draw is an exact-distribution transformation of the
// uniform-scheduler process.
func indexedLoop(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, ix *batchIndex, runs bool, mut *Mutator, ev *Event) Result {
	n := cfg.n
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

	// stable evaluates the detector (through its O(1) gate when it has
	// one) against the configuration frozen at step `at`, counting the
	// check and emitting the verdict. Detect events are emitted at
	// evaluation time, which for interval checks inside a frozen
	// stretch is before the skip batch covering that stretch — the
	// events' Step fields keep the per-position timeline unambiguous.
	stable := func(at int64) bool {
		res.Metrics.DetectorChecks++
		st := ix.stable(&det, cfg)
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

	// Geometric-skip memo: the gap rate −1/ln(1 − m/total) is a pure
	// function of the enabled-pair count m, and m repeats heavily
	// between effective steps (most landings change it by at most a few
	// units, and phases often hold it constant), so the rate from the
	// previous landing is reused whenever m is unchanged.
	memoM := int64(-1)
	var memoInv float64

	// Swap runs. While the census is frozen the landing cells are iid
	// categorical(w/m), so the number of consecutive landings on one
	// cell of weight w before the first landing elsewhere is
	// Geometric(1 − w/m) — one GeometricExp draw, unbounded when the
	// cell holds all m enabled pairs. Revealing a run on a
	// deterministic-swap cell unlocks two tiers:
	//
	//   - the analytic collapse, when the cell hosts a single interior
	//     walker (two listed edges sharing a degree-2 endpoint): each
	//     chunk of up to kernelPass landings resolves into one
	//     displacement draw (the run is an unconstrained ±1 walk while
	//     it stays on the safe segment — batchIndex.walkChunk), one
	//     negative-binomial draw for the scheduler gaps between its
	//     landings, and one teleport;
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
			(det.Gate != GateEdgeQuiescence || ix.edgeEnabled > 0) {
			// Runs of every length pay: the analytic tier needs long
			// single-walker runs, but even a length-1 run routes
			// through the run kernel at no extra cost over a
			// per-landing cell draw. The budget caps J: a run cannot
			// outlast it.
			if cell, w := ix.runClass(); w > 0 {
				runCell = cell
				runLeft = min(rng.GeometricExp(1/math.Log(float64(ix.enabled)/float64(w))), maxSteps-step)
				breakerAfter = w < ix.enabled
				breakerPending = runLeft == 0
			}
		}

		if runLeft > 0 {
			limit := min(runLeft, kernelPass)
			if limit >= collapseMin {
				chunk := ix.walkChunk(runCell, limit)
				if chunk >= collapseMin {
					// The chunk's landings interleave with iid
					// Geometric(m/total) scheduler misses, independent
					// of the cell sequence: their total is one
					// negative-binomial draw.
					span := chunk
					if fm := float64(ix.enabled); fm < total {
						span += rng.NegBinomial(chunk, fm/total)
					}
					if rem := maxSteps - step; span > rem {
						// The step budget ends inside the run. The
						// span's draw sequence ends with its chunk-th
						// landing; conditioned on (chunk, span) the
						// other chunk−1 landings are uniform among the
						// first span−1 draws, so the landings that fit
						// the budget are hypergeometric. Displace by
						// exactly those and the run is over.
						k := rng.Hypergeometric(rem, chunk-1, span-1)
						ix.collapseMove(rng.WalkDisplacement(k, 0))
						res.EffectiveSteps += k
						res.Metrics.CollapsedLandings += k
						res.Metrics.SkippedSteps += rem - k
						if rem > k {
							res.Metrics.SkipBatches++
						}
						res.Metrics.FastForwardEpochs++
						res.Steps = maxSteps
						return res
					}
					ix.collapseMove(rng.WalkDisplacement(chunk, 0))
					step += span
					res.EffectiveSteps += chunk
					res.Metrics.CollapsedLandings += chunk
					res.Metrics.SkippedSteps += span - chunk
					if span > chunk {
						res.Metrics.SkipBatches++
					}
					res.Metrics.FastForwardEpochs++
					runLeft -= chunk
					breakerPending = runLeft == 0 && breakerAfter
					continue
				}
				if chunk > 0 {
					// A single walker near its segment's end: step it a
					// few landings and try the collapse again, rather
					// than kernel-stepping the rest of a possibly
					// unbounded run. The pass keeps the cached walk
					// path (relocateWalker below).
					limit = collapseMin
				}
			}
			// Run kernel: the run's landings cannot fire the detector
			// (collapseGate) and their cell is already revealed, so
			// simulate them in a tight loop — real per-landing gap,
			// edge and swap draws, identical in law to the outer path,
			// minus the per-landing cell and detector bookkeeping. A
			// landing that leaves the uniform interior (applySwapFast
			// declines) runs the generic index update; if that moves
			// the census the run ends right there — a stopping time of
			// the landing sequence, exactly as on the outer path.
			id := int(runCell >> 1)
			drawGaps := float64(ix.enabled) < total
			if drawGaps && ix.enabled != memoM {
				memoM = ix.enabled
				memoInv = -1 / math.Log1p(-float64(ix.enabled)/total)
			}
			// Metrics are accumulated in locals and flushed once after
			// the loop: the per-landing cost is the two RNG draws and
			// the swap surgery itself.
			nodes := cfg.nodes
			list := ix.edgeList[id]
			var done, skipped, batches int64
			truncated, budgetOut := false, false
			for done < limit {
				if drawGaps {
					skip := rng.GeometricExp(memoInv)
					if skip >= maxSteps-step {
						skipped += maxSteps - step
						if maxSteps > step {
							batches++
						}
						step = maxSteps
						budgetOut = true
						break
					}
					skipped += skip
					if skip > 0 {
						batches++
					}
					step += skip + 1
				} else {
					if step >= maxSteps {
						budgetOut = true
						break
					}
					step++
				}
				done++
				key := list[rng.IntN(len(list))]
				u, v := int(key>>32), int(key&0xffffffff)
				beforeU, beforeV := nodes[u], nodes[v]
				nodes[u], nodes[v] = beforeV, beforeU
				if !ix.applySwapFast(u, v, beforeU, beforeV) {
					genBefore := ix.gen
					ix.applySwap(u, v, beforeU, beforeV)
					if ix.gen != genBefore {
						truncated = true
						break
					}
					// A fallback that kept the census frozen may
					// still have rewritten the cell's list in place;
					// its length is pinned while gen is frozen, but
					// reload the header to be safe.
					list = ix.edgeList[id]
				}
			}
			ix.relocateWalker(runCell, done)
			res.Metrics.Landings += done
			res.Metrics.BucketDraws += done
			res.Metrics.SkippedSteps += skipped
			res.Metrics.SkipBatches += batches
			res.EffectiveSteps += done
			runLeft -= done
			if budgetOut {
				res.Steps = maxSteps
				return res
			}
			if truncated {
				runLeft = 0
				frozen = false
			} else {
				breakerPending = runLeft == 0 && breakerAfter
			}
			continue
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
					memoInv = -1 / math.Log1p(-fm/total)
				}
				skip = rng.GeometricExp(memoInv)
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
		if frozen {
			res.Metrics.BucketDraws++
		}
		genBefore := ix.gen
		skip := int32(-1)
		if breakerPending {
			skip, breakerPending = runCell, false
		}
		cell := ix.sampleCell(rng, skip)
		var effective, edgeChanged bool
		u, v, kernel := 0, 0, false
		if id := int(cell >> 1); runs && cell&1 == 1 && ix.swapCell[id] {
			list := ix.edgeList[id]
			key := list[rng.IntN(len(list))]
			u, v, kernel = int(key>>32), int(key&0xffffffff), true
		} else {
			u, v = ix.sampleMember(cell, rng)
		}
		beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
		// An enabled pair can still take an ineffective probabilistic
		// branch; that matches the baseline, which also counts such
		// steps as ineffective.
		if kernel {
			cfg.nodes[u], cfg.nodes[v] = beforeV, beforeU
			if !ix.applySwapFast(u, v, beforeU, beforeV) {
				ix.applySwap(u, v, beforeU, beforeV)
			}
			effective = true
		} else if effective, edgeChanged = cfg.Apply(u, v, rng); effective {
			ix.Update(u, v, beforeU, beforeV, edgeChanged)
		}
		if effective {
			recordEffective(&res, p, cfg, events, ev, step, u, v, beforeU, beforeV, edgeChanged)
			// A manually applied landing may have moved the walker (or
			// restructured its segment) without bumping gen: the
			// cached walk path no longer knows the walker's position.
			ix.wpath.valid = false
		}
		frozen = runs && ix.gen == genBefore

		if det.due(step, interval, effective, edgeChanged) && stable(step) {
			res.Converged = true
			res.Steps = step
			return res
		}
	}
	res.Steps = maxSteps
	return res
}
