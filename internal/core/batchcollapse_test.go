package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// walkerPathConfig builds the swap-run collapse's target shape
// directly: a path graph of n blank (q2) nodes with a single walker
// (w) parked at node pos. The only enabled pairs are the walker's
// incident edges, and every landing is a deterministic swap, so the
// batch engine's census stays frozen while the walker stays interior —
// exactly the regime the analytic collapse tier absorbs.
func walkerPathConfig(t *testing.T, p *Protocol, n, pos int) *Config {
	t.Helper()
	cfg := NewConfig(p, n)
	for u := 0; u < n; u++ {
		cfg.SetNode(u, 1) // q2
	}
	cfg.SetNode(pos, 2) // w
	for u := 0; u+1 < n; u++ {
		cfg.SetEdge(u, u+1, true)
	}
	return cfg
}

// TestBatchIndexApplySwapFast pins the census-invariant swap surgery:
// on a single-walker path every interior swap satisfies the surgery's
// preconditions (both endpoints degree 2, outer neighbors sharing a
// state), and the surgery must leave every cached weight and the
// census generation untouched while keeping the full index — lists,
// mirrors, slots — brute-force verifiable. Swaps onto a path end must
// be declined and handled by the generic applySwap, which does move
// the census (the cell loses an edge).
func TestBatchIndexApplySwapFast(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	const n = 48
	cfg := walkerPathConfig(t, p, n, n/2)
	bi := newBatchIndex(cfg)
	verifyBatchIndex(t, bi, cfg)
	rng := NewRNG(11)
	fast, declined := 0, 0
	for step := 0; step < 3000; step++ {
		u, v, _ := bi.sample(rng)
		a, b := cfg.Node(u), cfg.Node(v)
		if !cfg.Edge(u, v) || !bi.swapCell[bi.classID(a, b)] {
			t.Fatalf("step %d: sampled pair (%d,%d) is not a swap-cell edge", step, u, v)
		}
		before := snapshotWeights(bi)
		genBefore := bi.gen
		cfg.nodes[u], cfg.nodes[v] = b, a
		if bi.applySwapFast(u, v, a, b) {
			fast++
			if bi.gen != genBefore {
				t.Fatalf("step %d: applySwapFast bumped gen", step)
			}
			if !weightsEqual(before, snapshotWeights(bi)) {
				t.Fatalf("step %d: applySwapFast moved a cached weight", step)
			}
		} else {
			declined++
			bi.applySwap(u, v, a, b)
		}
		verifyBatchIndex(t, bi, cfg)
	}
	if fast == 0 || declined == 0 {
		t.Fatalf("walk exercised %d fast and %d declined swaps; want both > 0", fast, declined)
	}
}

// TestBatchCollapseWalkLaw pins the analytic tier against a literal
// simulation. Both arms run the single-walker path to a fixed step
// budget: the literal arm applies one uniform pair draw per step
// (the baseline scheduler, nothing skipped), the batch arm runs
// indexedLoop with swap runs on — geometric skips, geometric swap-run
// reveals, collapse, hypergeometric fast-forward at the budget's end.
// The walker's final position is a complete summary of the run (the path never changes,
// only the walker moves), so a two-sample chi-square on its
// distribution at α = 0.001 pins the collapse to the literal law.
// Seeds are fixed: a failure is a law change, not noise.
//
// The batch arm must also actually collapse (CollapsedLandings > 0,
// FastForwardEpochs > 0 in aggregate) and every run must satisfy the
// accounting invariant
// Landings + SkippedSteps + CollapsedLandings = Steps.
func TestBatchCollapseWalkLaw(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	trials := 200
	if testing.Short() {
		trials = 60
	}
	const (
		n        = 32
		maxSteps = 1 << 16
		buckets  = 8
	)
	det := Detector{Trigger: TriggerEdge, Stable: func(*Config) bool { return false }}

	literal := func() []int64 {
		h := make([]int64, buckets)
		for trial := 0; trial < trials; trial++ {
			cfg := walkerPathConfig(t, p, n, n/2)
			rng := NewRNG(uint64(trial) + 1)
			for step := int64(0); step < maxSteps; step++ {
				u, v := rng.Pair(n)
				cfg.Apply(u, v, rng)
			}
			h[walkerPos(t, cfg)*buckets/n]++
		}
		return h
	}
	batch := func() []int64 {
		h := make([]int64, buckets)
		var collapsed, fastForwards int64
		for trial := 0; trial < trials; trial++ {
			cfg := walkerPathConfig(t, p, n, n/2)
			rng := NewRNG(uint64(trial) + 1)
			ix := newBatchIndex(cfg)
			res := indexedLoop(p, cfg, det, Options{}, maxSteps, 1, rng, ix, true, nil, nil)
			m := res.Metrics
			if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
				t.Fatalf("trial %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
					trial, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
			}
			collapsed += m.CollapsedLandings
			fastForwards += m.FastForwardEpochs
			h[walkerPos(t, cfg)*buckets/n]++
		}
		if collapsed == 0 {
			t.Fatal("batch arm never engaged the analytic swap-run collapse")
		}
		if fastForwards == 0 {
			t.Fatal("batch arm never fast-forwarded an epoch")
		}
		return h
	}

	a := literal()
	b := batch()
	stat, df := stats.ChiSquareTwoSample(a, b)
	if df == 0 {
		t.Fatalf("degenerate walk: histograms %v vs %v", a, b)
	}
	if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
		t.Fatalf("final-position chi-square %.2f > critical %.2f (df %d)\nliteral %v\nbatch   %v",
			stat, crit, df, a, b)
	}
}

// walkerPos returns the unique walker node of a walker-path
// configuration.
func walkerPos(t *testing.T, cfg *Config) int {
	t.Helper()
	pos := -1
	for u := 0; u < cfg.N(); u++ {
		if cfg.Node(u) == 2 {
			if pos >= 0 {
				t.Fatalf("two walkers: nodes %d and %d", pos, u)
			}
			pos = u
		}
	}
	if pos < 0 {
		t.Fatal("walker vanished")
	}
	return pos
}

// TestBatchRunBreakerLaw pins revealed swap runs whose cell holds only
// part of the enabled weight (w < m), so that completed runs end in a
// landing drawn with the run cell excluded. Two walkers — w over q2 on
// one path, x over y on another — each hold their own swap class, so
// every run on one walker is broken by a landing on the other. Both
// arms run to a fixed step budget from both walkers at their paths'
// middles: the literal arm draws one uniform pair per step, the batch
// arm runs indexedLoop with swap runs on. A breaker drawn from the
// wrong law shifts how the landings split between the walkers, so the
// statistic is the joint distribution of the two walkers' distances
// from their start (four buckets each), compared by a two-sample
// chi-square test at α = 0.001.
func TestBatchRunBreakerLaw(t *testing.T) {
	t.Parallel()
	p := MustProtocol("two-walkers", []string{"q2", "w", "y", "x"}, 0, nil, []Rule{
		{A: 1, B: 0, Edge: true, OutA: 0, OutB: 1, OutEdge: true},
		{A: 3, B: 2, Edge: true, OutA: 2, OutB: 3, OutEdge: true},
	})
	trials := 1200
	if testing.Short() {
		trials = 400
	}
	const (
		line     = 16
		maxSteps = 1 << 13
		buckets  = 4
	)
	det := Detector{Trigger: TriggerEdge, Stable: func(*Config) bool { return false }}
	initial := func() *Config {
		cfg := NewConfig(p, 2*line)
		for u := 0; u < line; u++ {
			cfg.SetNode(line+u, 2) // y
		}
		cfg.SetNode(line/2, 1)      // w
		cfg.SetNode(line+line/2, 3) // x
		for u := 0; u+1 < line; u++ {
			cfg.SetEdge(u, u+1, true)
			cfg.SetEdge(line+u, line+u+1, true)
		}
		return cfg
	}
	cellOf := func(cfg *Config) int {
		var w, x int // the walkers' distance buckets
		for u := 0; u < cfg.N(); u++ {
			d := u%line - line/2
			d = min(max(d, -d)/2, buckets-1)
			switch cfg.Node(u) {
			case 1:
				w = d
			case 3:
				x = d
			}
		}
		return w*buckets + x
	}

	literal := make([]int64, buckets*buckets)
	batch := make([]int64, buckets*buckets)
	var bucketDraws int64
	for trial := 0; trial < trials; trial++ {
		cfg := initial()
		rng := NewRNG(uint64(trial) + 1)
		for step := int64(0); step < maxSteps; step++ {
			u, v := rng.Pair(cfg.N())
			cfg.Apply(u, v, rng)
		}
		literal[cellOf(cfg)]++

		cfg = initial()
		res := indexedLoop(p, cfg, det, Options{}, maxSteps, 1, NewRNG(uint64(trial)+1), newBatchIndex(cfg), true, nil, nil)
		if m := res.Metrics; m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
			t.Fatalf("trial %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
				trial, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
		}
		bucketDraws += res.Metrics.BucketDraws
		batch[cellOf(cfg)]++
	}
	if bucketDraws == 0 {
		t.Fatal("batch arm never drew inside a census-frozen stretch")
	}
	chiSquareCompare(t, "two-walker distances", literal, batch)
}

// walkerRingConfig closes walkerPathConfig's path into a cycle: every
// node has degree 2, so the walker's safe segment never ends and
// batchIndex.walkChunk bounds a collapse only by the landings asked
// for. The walker's two edges are the only enabled pairs, so its swap
// cell holds all of them (w = m) and every revealed run is unbounded.
func walkerRingConfig(t *testing.T, p *Protocol, n int) *Config {
	t.Helper()
	cfg := walkerPathConfig(t, p, n, 0)
	cfg.SetEdge(n-1, 0, true)
	return cfg
}

// TestBatchCollapseRingBudgetLaw pins the collapse on an all-safe cycle,
// where one revealed run spans the whole step budget. The ring is a
// triangle, so a landing takes 2 of the 3 pairs and a kernelPass-sized
// chunk spans about 1.5·kernelPass steps, some 18 standard deviations
// inside the budget below: each trial collapses one full chunk and
// then ends inside the next, at the hypergeometric budget cut. The literal arm draws one uniform pair per step and
// applies and counts the steps that land on the walker's edges (every
// other pair is a no-op); every landing is a swap, so the batch arm's
// landings are its EffectiveSteps. The joint law of (landings, final
// walker node) is compared by a two-sample chi-square test at
// α = 0.001, with the landings bucketed by standard deviations around
// their Binomial(maxSteps, 2/3) mean.
func TestBatchCollapseRingBudgetLaw(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	trials := 400
	if testing.Short() {
		trials = 150
	}
	const (
		n        = 3
		maxSteps = kernelPass*3/2 + 1<<12
		buckets  = 6
	)
	det := Detector{Trigger: TriggerEdge, Stable: func(*Config) bool { return false }}
	mean := float64(maxSteps) * 2 / 3
	sd := math.Sqrt(float64(maxSteps) * 2 / 9)
	cellOf := func(landings int64, cfg *Config) int {
		b := int(math.Floor((float64(landings)-mean)/sd)) + buckets/2
		return min(max(b, 0), buckets-1)*n + walkerPos(t, cfg)
	}

	literal := make([]int64, buckets*n)
	batch := make([]int64, buckets*n)
	var epochs int64
	for trial := 0; trial < trials; trial++ {
		cfg := walkerRingConfig(t, p, n)
		rng := NewRNG(uint64(trial) + 1)
		var landings int64
		for step := int64(0); step < maxSteps; step++ {
			u, v := rng.Pair(n)
			if cfg.Node(u) == 2 || cfg.Node(v) == 2 {
				landings++
				cfg.Apply(u, v, rng)
			}
		}
		literal[cellOf(landings, cfg)]++

		cfg = walkerRingConfig(t, p, n)
		res := indexedLoop(p, cfg, det, Options{}, maxSteps, 1, NewRNG(uint64(trial)+1), newBatchIndex(cfg), true, nil, nil)
		m := res.Metrics
		if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps || res.Steps != maxSteps {
			t.Fatalf("trial %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d (budget %d)",
				trial, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps, int64(maxSteps))
		}
		if res.EffectiveSteps != m.Landings+m.CollapsedLandings {
			t.Fatalf("trial %d: EffectiveSteps %d != Landings %d + CollapsedLandings %d",
				trial, res.EffectiveSteps, m.Landings, m.CollapsedLandings)
		}
		epochs += m.FastForwardEpochs
		batch[cellOf(res.EffectiveSteps, cfg)]++
	}
	if epochs < 2*int64(trials) {
		t.Fatalf("batch arm collapsed %d chunks over %d trials; want at least two per trial", epochs, trials)
	}
	chiSquareCompare(t, "ring landings × walker node", literal, batch)
}

// TestBatchCollapseRingPollsStop pins the bound on one collapse: on an
// all-safe cycle a revealed run is unbounded, and a collapse spanning
// a huge budget would run its displacement and budget-cut draws over
// every landing in one call. indexedLoop must instead return to its head
// — where opts.Stop is polled — after at most kernelPass landings.
func TestBatchCollapseRingPollsStop(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	cfg := walkerRingConfig(t, p, 16)
	det := Detector{Trigger: TriggerEdge, Stable: func(*Config) bool { return false }}
	const polls = 4
	calls := 0
	opts := Options{Stop: func() bool { calls++; return calls > polls }}
	res := indexedLoop(p, cfg, det, opts, 1<<36, 1, NewRNG(7), newBatchIndex(cfg), true, nil, nil)
	if !res.Stopped {
		t.Fatalf("run not stopped: Steps %d, Stop polled %d times", res.Steps, calls)
	}
	m := res.Metrics
	if m.CollapsedLandings == 0 {
		t.Fatal("ring walker never collapsed")
	}
	if got := m.Landings + m.CollapsedLandings; got > polls*kernelPass {
		t.Fatalf("%d landings consumed over %d polls; want at most %d per pass", got, polls, kernelPass)
	}
	walkerPos(t, cfg)
}

// TestBatchWalkPathSurvivesNearEndPass pins the walk-path cache across
// the run kernel's near-end passes: with the walker two positions from
// its segment's end, walkChunk offers fewer than collapseMin landings,
// so indexedLoop steps at most collapseMin of them through the kernel.
// A pass that leaves gen unchanged must keep the cached path and
// re-locate the walker on it — the next walkChunk answers from the
// cache (same anchor, no rescan) with the walker's true distance to
// the segment's end — and a pass that moves the census (the walker
// stepping onto the degree-1 end) must drop it.
func TestBatchWalkPathSurvivesNearEndPass(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	const n = 48
	kept, dropped := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		cfg := walkerPathConfig(t, p, n, n-4)
		bi := newBatchIndex(cfg)
		cell := int32(bi.classID(2, 1)<<1 | 1)
		if chunk := bi.walkChunk(cell, kernelPass); chunk != 2 || !bi.wpath.valid {
			t.Fatalf("seed %d: walkChunk = %d (valid %v); want 2 from a valid path", seed, chunk, bi.wpath.valid)
		}
		anchor := bi.wpath.anchor
		// One near-end kernel pass, as indexedLoop runs it.
		rng := NewRNG(seed)
		genBefore := bi.gen
		var done int64
		for done < collapseMin && bi.gen == genBefore {
			list := bi.edgeList[cell>>1]
			key := list[rng.IntN(len(list))]
			u, v := int(key>>32), int(key&0xffffffff)
			a, b := cfg.nodes[u], cfg.nodes[v]
			cfg.nodes[u], cfg.nodes[v] = b, a
			if !bi.applySwapFast(u, v, a, b) {
				bi.applySwap(u, v, a, b)
			}
			done++
		}
		bi.relocateWalker(cell, done)
		if bi.gen != genBefore {
			if bi.wpath.valid {
				t.Fatalf("seed %d: the pass moved the census but the walk path stayed valid", seed)
			}
			dropped++
			continue
		}
		wp := &bi.wpath
		w := walkerPos(t, cfg)
		if !wp.valid || int(wp.node(wp.pos)) != w {
			t.Fatalf("seed %d: after a frozen %d-landing pass the path is valid=%v at node %d; walker at %d",
				seed, done, wp.valid, wp.node(wp.pos), w)
		}
		want := min(int64(w-1), int64(n-2-w))
		if chunk := bi.walkChunk(cell, kernelPass); chunk != want || wp.anchor != anchor {
			t.Fatalf("seed %d: walkChunk = %d from anchor %d; want %d from the cached anchor %d",
				seed, chunk, wp.anchor, want, anchor)
		}
		kept++
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("%d passes kept the path and %d dropped it; want both > 0", kept, dropped)
	}
}

// TestBatchKernelLandingChecksDetector pins the detector check after a
// run-kernel landing that moves the census. On a line, x sits at node 0
// and a walker w at node 4 over blank b nodes; the walker swaps along
// the line, and the b-x edge {0, 1} deactivates when its pair lands.
// All states are output, so the walker's swaps run through the run
// kernel. The edge-quiescence gate opens either when edge {0, 1} dies
// or when the walker arrives at node 1 while it still lives, blocking
// the only edge-changing pair — an arrival landing that leaves the
// walker's uniform interior and so moves the census, ending the
// kernel pass. The detector is checked after every effective landing,
// so the run must end on that arrival. The share of runs that end with
// edge {0, 1} still active is compared between the batch engine and
// the exact sparse engine by a two-proportion test (a 2×2 chi-square)
// at α = 0.001: a kernel landing that skips the check misses most
// arrivals.
func TestBatchKernelLandingChecksDetector(t *testing.T) {
	t.Parallel()
	p := MustProtocol("walker-to-x", []string{"b", "w", "x"}, 0, nil, []Rule{
		{A: 1, B: 0, Edge: true, OutA: 0, OutB: 1, OutEdge: true},
		{A: 0, B: 2, Edge: true, OutA: 0, OutB: 2, OutEdge: false},
	})
	trials := 3000
	if testing.Short() {
		trials = 1500
	}
	const n = 70
	initial := NewConfig(p, n)
	initial.SetNode(0, 2) // x
	initial.SetNode(4, 1) // w
	for u := 0; u+1 < n; u++ {
		initial.SetEdge(u, u+1, true)
	}
	det := Detector{Stable: func(cfg *Config) bool { return cfg.EdgeQuiescent() },
		Trigger: TriggerEffective, Gate: GateEdgeQuiescence}
	arrivals := func(engine Engine) []int64 {
		var hits, frozenDraws int64
		for seed := 1; seed <= trials; seed++ {
			res, err := Run(p, n, Options{Seed: uint64(seed), Engine: engine, Detector: det,
				MaxSteps: 1 << 40, Initial: initial})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s seed %d: not converged after %d steps", engine, seed, res.Steps)
			}
			if res.Final.Edge(0, 1) {
				hits++
			}
			frozenDraws += res.Metrics.BucketDraws
		}
		if engine == EngineBatch && frozenDraws == 0 {
			t.Fatal("batch arm never drew inside a census-frozen stretch")
		}
		return []int64{hits, int64(trials) - hits}
	}
	chiSquareCompare(t, "arrival firings (sparse vs batch)", arrivals(EngineSparse), arrivals(EngineBatch))
}
