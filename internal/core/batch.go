package core

import "math"

// Bucket-plan sizing: plans start small, double on full consumption
// and halve on truncation, so the planned horizon tracks the length of
// the run's census-frozen stretches. The ceiling is sized for the
// swap-run collapse: a Simple-Global-Line walker's census-frozen
// stretches grow with the squared line length, and every planned
// landing the collapse absorbs costs O(1/64) of a popcount word — so
// large plans are nearly free exactly when they are long-lived.
const (
	batchPlanMin   = 8
	batchPlanStart = 16
	batchPlanMax   = 1 << 15
)

// collapseMin is the swap-run length below which the collapse draws
// (run length, gap total, displacement) cost more than the per-landing
// kernel they replace.
const collapseMin = 8

// bucketPlan is the batch engine's pre-drawn allocation of the next k
// landings to the enabled (state-class, state-class, edge-state)
// sub-buckets, valid while the census generation is unchanged.
//
// Law preservation (the full argument is in ARCHITECTURE.md): while no
// sub-bucket weight changes, the landing buckets are iid
// categorical(w/m). Drawing the counts c ~ Multinomial(k, w/m) once
// and then consuming them in uniformly random order (an urn draw
// proportional to the remaining counts per landing) produces exactly
// that iid sequence — multinomial counts plus a uniform interleaving
// are the de Finetti decomposition of k iid draws. The pair *within*
// the chosen bucket is drawn from the bucket's current contents at
// application time, identical to the sparse engine's second stage.
// Truncating the plan at the first landing that changes some weight is
// a stopping time of the sequence, so discarding the unapplied suffix
// and re-planning from the new weights preserves the law exactly.
type bucketPlan struct {
	size      int64   // k for the next build (adaptive)
	cells     []int32 // enabled sub-bucket keys: 2·classID + edgeBit
	counts    []int64 // remaining planned landings per cell
	weights   []int64 // scratch for the multinomial draw
	remaining int64
	gen       uint64 // census generation the plan was drawn against
}

// build draws a fresh plan against the index's current weights.
func (pl *bucketPlan) build(ix *batchIndex, rng *RNG) {
	pl.cells = pl.cells[:0]
	pl.weights = pl.weights[:0]
	for a := 0; a < ix.q; a++ {
		for b := a; b < ix.q; b++ {
			id := a*ix.q + b
			if w := ix.w[2*id]; w > 0 {
				pl.cells = append(pl.cells, int32(2*id))
				pl.weights = append(pl.weights, w)
			}
			if w := ix.w[2*id+1]; w > 0 {
				pl.cells = append(pl.cells, int32(2*id+1))
				pl.weights = append(pl.weights, w)
			}
		}
	}
	pl.counts = rng.MultinomialBuckets(pl.size, pl.weights, pl.counts)
	pl.remaining = pl.size
	pl.gen = ix.gen
}

// drawCell consumes one planned landing and returns its sub-bucket
// key: an urn draw over the remaining counts (skipped when a single
// sub-bucket is enabled — the common case in census-frozen phases).
// The member within the bucket is the caller's to draw, from the
// bucket's current contents at application time.
func (pl *bucketPlan) drawCell(rng *RNG) int32 {
	idx := 0
	if len(pl.cells) > 1 {
		t := rng.Int64N(pl.remaining)
		for t >= pl.counts[idx] {
			t -= pl.counts[idx]
			idx++
		}
	}
	pl.counts[idx]--
	pl.remaining--
	return pl.cells[idx]
}

// drawCellExcluding consumes one planned landing drawn over every cell
// except the one at index skip — the conditioned draw right after a
// collapsed run: the run ended precisely because the next landing is
// some other cell, so the urn draw excludes the run's cell (whose
// remaining count stays in the plan for later landings).
func (pl *bucketPlan) drawCellExcluding(rng *RNG, skip int) int32 {
	t := rng.Int64N(pl.remaining - pl.counts[skip])
	idx := 0
	for i, c := range pl.counts {
		if i == skip {
			continue
		}
		if t < c {
			idx = i
			break
		}
		t -= c
	}
	pl.counts[idx]--
	pl.remaining--
	return pl.cells[idx]
}

// runBatch is the batch engine. In its pure form it runs batchLoop
// over the census index: geometric skips between landings as the
// sparse engine, but consecutive landings inside a census-frozen
// stretch are allocated to class sub-buckets by one multivariate draw
// instead of per-landing index walks, and deterministic-swap landings
// run a specialized kernel.
//
// Two conditions switch the whole run to exact per-landing stepping —
// literally the sparse engine's runIndexed over the same index,
// bit-identical to EngineSparse: an attached EventSink or fault
// Injector (those consumers observe individual landings, which the
// pure path does not reproduce draw-for-draw), and a protocol with no
// census-preserving outcome (Protocol.Batchable — such runs could
// never hold a plan, so the exact path costs nothing and keeps every
// census-changing transition bit-identical to the sparse engine).
// Result.Engine still reports EngineBatch and
// Metrics.ExactFallbackLandings counts every landing as exact-stepped.
// A restricted topology routes to the exact path too: the pure batch
// plan allocates landings to class sub-buckets by whole-class pair
// counts, which a permitted-pair restriction reshapes per class — the
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
//   - a landing inside a valid plan consumes a planned sub-bucket
//     (Metrics.BucketDraws); a landing right after a census-preserving
//     landing builds a fresh plan first; any other landing draws
//     through the index directly;
//   - a planned landing on a deterministic-swap edge class skips the
//     rule lookup, the orientation coin and the edge-store reads
//     entirely: the two endpoint states are exchanged in place and the
//     index patched by applySwap (a swap is orientation-symmetric and
//     its compiled entry consumes no coins, so the kernel is the law
//     of Config.Apply with the arithmetic removed);
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
	plan := &ix.plan
	plan.size = batchPlanStart
	plan.remaining = 0
	planEligible := false

	// Swap-run state. Within a census-frozen stretch the plan's
	// consumption order is an exchangeable shuffle of its count
	// multiset, so the length of the opening run of any one cell is
	// negative-hypergeometric in the remaining counts. Revealing a run
	// on a deterministic-swap cell unlocks two tiers:
	//
	//   - the analytic collapse, when the cell hosts a single interior
	//     walker (two listed edges sharing a degree-2 endpoint): the
	//     whole run resolves into one displacement draw (the run is an
	//     unconstrained ±1 walk while it stays on the safe segment —
	//     batchIndex.walkChunk), one negative-binomial draw for the
	//     scheduler gaps between its landings, and one teleport;
	//   - the run kernel, otherwise (many walkers sharing the cell):
	//     the run's landings are simulated individually — same draws,
	//     same law — but in a tight loop with the cell fixed, skipping
	//     the per-landing plan and detector bookkeeping that provably
	//     does nothing inside a frozen stretch, and patching the index
	//     with the census-invariant applySwapFast surgery.
	//
	// The run length J is revealed by a real sample, so it must be
	// honored exactly: landings neither tier absorbs are forced through
	// the per-landing kernel with the cell fixed (runLeft), and the
	// landing after the run draws from the plan with the run cell
	// excluded (breakerPending) — the run ended precisely because that
	// landing is some other cell.
	//
	// Detector transparency: collapse is allowed when landings inside
	// a frozen stretch provably cannot fire the detector — TriggerEdge
	// (a swap changes no edge, so no check happens), or a weight-gated
	// detector (the gate reads enabled/edgeEnabled, which are frozen
	// with the census; the per-attempt check below refuses to collapse
	// when an edge-quiescence gate is already open). Custom Stable
	// predicates with effective or interval triggers observe the
	// configuration itself and are never collapsed over. Classes whose
	// swap would change the output graph are excluded by swapOut:
	// ConvergenceTime tracks the last output change per landing, which
	// the collapse does not reproduce.
	var runLeft int64
	runIdx := 0
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

		if collapseGate && plan.remaining > 0 && plan.gen == ix.gen &&
			(det.Gate != GateEdgeQuiescence || ix.edgeEnabled > 0) {
			if runLeft == 0 && !breakerPending {
				// Establish the opening run of the plan's dominant
				// eligible swap cell, if any. Runs of every length pay:
				// the analytic tier needs long single-walker runs, but
				// even a length-1 run routes through the run kernel at
				// no extra cost over the per-landing urn draw.
				best, bestIdx := int64(0), -1
				for i, cell := range plan.cells {
					if cell&1 == 1 && ix.swapCell[cell>>1] && !ix.swapOut[cell>>1] &&
						plan.counts[i] > best {
						best, bestIdx = plan.counts[i], i
					}
				}
				if bestIdx >= 0 {
					runIdx = bestIdx
					runLeft = rng.NegHypergeometricRun(best, plan.remaining-best)
					breakerAfter = plan.remaining > best
					if runLeft == 0 {
						breakerPending = breakerAfter
					}
				}
			}
			if runLeft >= collapseMin {
				if chunk := ix.walkChunk(plan.cells[runIdx], runLeft); chunk >= collapseMin {
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
					plan.counts[runIdx] -= chunk
					plan.remaining -= chunk
					runLeft -= chunk
					if runLeft == 0 {
						breakerPending = breakerAfter
					}
					if plan.remaining == 0 && plan.size < batchPlanMax {
						plan.size *= 2
					}
					continue
				}
			}
			if runLeft > 0 {
				// Run kernel: the run's landings cannot fire the
				// detector (collapseGate) and their cell is already
				// revealed, so simulate them in a tight loop — real
				// per-landing gap, edge and swap draws, identical in
				// law to the outer path, minus the per-landing plan
				// and detector bookkeeping. A landing that leaves the
				// uniform interior (applySwapFast declines) runs the
				// generic index update; if that moves the census the
				// plan dies right there — a stopping time of the
				// landing sequence, exactly as on the outer path.
				id := int(plan.cells[runIdx] >> 1)
				ix.wpath.valid = false
				drawGaps := float64(ix.enabled) < total
				if drawGaps && ix.enabled != memoM {
					memoM = ix.enabled
					memoInv = -1 / math.Log1p(-float64(ix.enabled)/total)
				}
				// Metrics and plan counters are accumulated in locals
				// and flushed once after the loop: the per-landing cost
				// is the two RNG draws and the swap surgery itself.
				nodes := cfg.nodes
				list := ix.edgeList[id]
				var done, skipped, batches int64
				truncated, budgetOut := false, false
				for done < runLeft {
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
				plan.counts[runIdx] -= done
				plan.remaining -= done
				runLeft -= done
				if budgetOut {
					res.Steps = maxSteps
					return res
				}
				if truncated {
					plan.remaining = 0
					if plan.size > batchPlanMin {
						plan.size /= 2
					}
					runLeft, breakerPending = 0, false
					planEligible = false
				} else {
					if runLeft == 0 {
						breakerPending = breakerAfter
					}
					if plan.remaining == 0 && plan.size < batchPlanMax {
						plan.size *= 2
					}
					planEligible = true
				}
				continue
			}
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
		genBefore := ix.gen
		var u, v int
		var effective, edgeChanged bool
		cell := int32(-1)
		switch {
		case plan.remaining > 0 && plan.gen == ix.gen:
			switch {
			case runLeft > 0:
				// Forced landing inside an established run the
				// collapse could not absorb (walker near its segment
				// boundary): the cell is already revealed.
				cell = plan.cells[runIdx]
				plan.counts[runIdx]--
				plan.remaining--
				runLeft--
				if runLeft == 0 {
					breakerPending = breakerAfter
				}
			case breakerPending:
				cell = plan.drawCellExcluding(rng, runIdx)
				breakerPending = false
			default:
				cell = plan.drawCell(rng)
			}
		case planEligible:
			plan.build(ix, rng)
			cell = plan.drawCell(rng)
		}
		kernel := false
		if cell >= 0 {
			res.Metrics.BucketDraws++
			id := int(cell >> 1)
			if cell&1 == 1 {
				list := ix.edgeList[id]
				key := list[rng.IntN(len(list))]
				u, v = int(key>>32), int(key&0xffffffff)
				kernel = ix.swapCell[id]
				if !kernel {
					u, v = orient(u, v, rng)
				}
			} else {
				u, v = ix.sampleNonEdge(id, rng)
			}
		} else {
			u, v = ix.Sample(rng)
		}
		if kernel {
			beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
			cfg.nodes[u], cfg.nodes[v] = beforeV, beforeU
			if !ix.applySwapFast(u, v, beforeU, beforeV) {
				ix.applySwap(u, v, beforeU, beforeV)
			}
			recordEffective(&res, p, cfg, nil, nil, step, u, v, beforeU, beforeV, false)
			effective = true
		} else {
			beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
			effective, edgeChanged = cfg.Apply(u, v, rng)
			if effective {
				ix.Update(u, v, beforeU, beforeV, edgeChanged)
				recordEffective(&res, p, cfg, nil, nil, step, u, v, beforeU, beforeV, edgeChanged)
			}
		}
		if effective {
			// A manually applied landing may have moved the walker (or
			// restructured its segment) without bumping gen: the
			// cached walk path no longer knows the walker's position.
			ix.wpath.valid = false
		}
		if ix.gen != genBefore {
			// Census moved: truncate any outstanding plan (the discarded
			// suffix is exchangeable — dropping it at a stopping time
			// preserves the law) and shrink the horizon. Any revealed
			// run dies with its plan.
			if plan.remaining > 0 {
				plan.remaining = 0
				if plan.size > batchPlanMin {
					plan.size /= 2
				}
			}
			runLeft, breakerPending = 0, false
			planEligible = false
		} else {
			if cell >= 0 && plan.remaining == 0 && plan.size < batchPlanMax {
				plan.size *= 2
			}
			planEligible = true
		}

		if det.due(step, interval, effective, edgeChanged) && stable() {
			res.Converged = true
			res.Steps = step
			return res
		}
	}
	res.Steps = maxSteps
	return res
}
