package core

import "math"

// collapseMin is the swap-run length below which the collapse draws
// (run length, gap total, displacement) cost more than the per-landing
// kernel they replace.
const collapseMin = 8

// kernelPass bounds the landings one collapse or run-kernel pass
// consumes before batchLoop returns to its head, where opts.Stop is
// polled: a revealed run may span the whole remaining step budget. The
// bound also keeps a collapse's displacement and budget-cut draws
// O(kernelPass) on an all-safe cycle, where walkChunk imposes none.
const kernelPass = 1 << 16

// runBatch is the batch engine. In its pure form it runs batchLoop
// over the census index: geometric skips between landings as the
// sparse engine, but inside a census-frozen stretch the run of
// consecutive landings on a deterministic-swap class is revealed by one
// geometric draw and resolved analytically or by a specialized kernel.
//
// Two conditions switch the whole run to exact per-landing stepping —
// literally the sparse engine's runIndexed over the same index,
// bit-identical to EngineSparse: an attached EventSink or fault
// Injector (those consumers observe individual landings, which the
// pure path does not reproduce draw-for-draw), and a protocol with no
// census-preserving outcome (Protocol.Batchable — such runs never
// freeze the census, so the exact path costs nothing and keeps every
// census-changing transition bit-identical to the sparse engine).
// Result.Engine still reports EngineBatch and
// Metrics.ExactFallbackLandings counts every landing as exact-stepped.
// A restricted topology routes to the exact path too: batchLoop draws
// its gaps against the complete-graph pair universe n(n−1)/2, and the
// exact path stays bit-identical to EngineSparse under any topology.
func runBatch(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG) (Result, error) {
	if opts.Events != nil || opts.Injector != nil || opts.Topology != nil || !p.Batchable() {
		res, err := runSparse(p, cfg, det, opts, maxSteps, interval, rng)
		res.Engine = EngineBatch
		res.Metrics.ExactFallbackLandings = res.Metrics.Landings
		return res, err
	}
	ix := opts.Workspace.batchIndex(cfg)
	res := batchLoop(p, cfg, det, opts, maxSteps, interval, rng, ix)
	res.Metrics.IndexBuilds = 1
	res.Metrics.SampleRejections, res.Metrics.SampleFallbacks = ix.rejections, ix.fallbacks
	return res, nil
}

// batchLoop mirrors indexedLoop's skip/landing/detector structure (no
// event sink or injector can be attached here — runBatch routed
// those to the exact path), with three changes to the landing itself:
//
//   - inside a census-frozen stretch (the last landing left every
//     sub-bucket weight unchanged) the run of consecutive landings on
//     the heaviest deterministic-swap cell is revealed by one geometric
//     draw and consumed by the collapse or the run kernel below; the
//     landing after a completed run draws with that cell excluded;
//   - a landing on a deterministic-swap edge class skips the rule
//     lookup, the orientation coin and the edge-store reads entirely:
//     the two endpoint states are exchanged in place and the index
//     patched by applySwap (a swap is orientation-symmetric and its
//     compiled entry consumes no coins, so the kernel is the law of
//     Config.Apply with the arithmetic removed);
//   - the geometric gaps draw through GeometricExp — same law as the
//     sparse engine's GeometricLn from a cheaper primitive.
//
// The loop therefore makes no bit-identity promise against
// EngineSparse; runs that need one are routed to the exact path by
// runBatch. What it promises is the exact law: every draw is an
// exact-distribution transformation of the uniform-scheduler process.
func batchLoop(p *Protocol, cfg *Config, det Detector, opts Options, maxSteps, interval int64, rng *RNG, ix *batchIndex) Result {
	n := cfg.n
	res := Result{Final: cfg, Engine: EngineBatch}
	total := float64(n) * float64(n-1) / 2

	stable := func() bool {
		res.Metrics.DetectorChecks++
		return ix.stable(&det, cfg)
	}
	if stable() {
		res.Converged = true
		return res
	}

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
	// not reproduce.
	frozen := false // the last landing left the census unchanged
	var runLeft int64
	runCell := int32(-1)
	breakerPending, breakerAfter := false, false
	collapseGate := det.Trigger == TriggerEdge ||
		det.Gate == GateQuiescence || det.Gate == GateEdgeQuiescence

	var step int64
	for step < maxSteps {
		if opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			res.Steps = step
			return res
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
					// unbounded run.
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
			ix.wpath.valid = false
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

		land := maxSteps + 1
		if m := ix.enabled; m > 0 {
			var skip int64
			if fm := float64(m); fm >= total {
				skip = 0
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

		if det.Trigger == TriggerInterval {
			if s := nextCheck(step, interval); s <= maxSteps && s < land && stable() {
				skipRange(&res, nil, nil, step, s)
				res.Converged = true
				res.Steps = s
				return res
			}
		}
		if land > maxSteps {
			skipRange(&res, nil, nil, step, maxSteps)
			res.Steps = maxSteps
			return res
		}

		skipRange(&res, nil, nil, step, land-1)
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
		if id := int(cell >> 1); cell&1 == 1 && ix.swapCell[id] {
			list := ix.edgeList[id]
			key := list[rng.IntN(len(list))]
			u, v, kernel = int(key>>32), int(key&0xffffffff), true
		} else {
			u, v = ix.sampleMember(cell, rng)
		}
		beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
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
			recordEffective(&res, p, cfg, nil, nil, step, u, v, beforeU, beforeV, edgeChanged)
			// A manually applied landing may have moved the walker (or
			// restructured its segment) without bumping gen: the
			// cached walk path no longer knows the walker's position.
			ix.wpath.valid = false
		}
		frozen = ix.gen == genBefore

		if det.due(step, interval, effective, edgeChanged) && stable() {
			res.Converged = true
			res.Steps = step
			return res
		}
	}
	res.Steps = maxSteps
	return res
}
