package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/stats"
)

// TestBatchCollapseTwoLinesSmallN pins the swap-run collapse at the
// smallest populations the census index serves: pure batch from
// Simple-Global-Line's last merge at n = 66 — two 33-node lines whose
// leaders are about to meet — run to quiescence must collapse part of
// the walker's crossing and end on a spanning line. The walker's
// interior swaps are collapsible at every census-served n (up to 64
// nodes the bit-row index serves the run, which steps every landing),
// so a run that reports no collapsed landing here means the collapse
// tier has been walled off from small census populations.
func TestBatchCollapseTwoLinesSmallN(t *testing.T) {
	t.Parallel()
	sgl := protocols.SimpleGlobalLine()
	const n = 66
	for seed := uint64(1); seed <= 5; seed++ {
		initial := twoLines(t, sgl.Proto, n)
		res, err := core.Run(sgl.Proto, n, core.Options{
			Seed: seed, Engine: core.EngineBatch, Detector: core.QuiescenceDetector(), Initial: initial,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if !res.Converged || !protocols.ActiveGraph(res.Final).IsSpanningLine() {
			t.Fatalf("seed %d: converged=%v, final %s is not a spanning line", seed, res.Converged, res.Final)
		}
		if m.CollapsedLandings == 0 {
			t.Fatalf("seed %d: no collapsed landing (landings %d, bucket draws %d, exact %d)",
				seed, m.Landings, m.BucketDraws, m.ExactFallbackLandings)
		}
		if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
			t.Fatalf("seed %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
				seed, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
		}
	}
}

// TestBatchCollapseTwoLinesLaw pins the strip-exit collapse end to end
// at census-served n: from Simple-Global-Line's last merge at n = 66
// and 130, run to quiescence, the batch engine's Steps and
// ConvergenceTime must match the exact sparse engine's by two-sample
// KS at α = 0.001 over 400 trials each. The walker crosses a line of
// about n/2 nodes, so nearly every collapse epoch ends on a visit to
// its strip's end: a first-visit draw with the wrong law shifts the
// crossing time. Seeds are fixed and disjoint between the arms: a
// failure is a law change, not noise.
func TestBatchCollapseTwoLinesLaw(t *testing.T) {
	t.Parallel()
	sgl := protocols.SimpleGlobalLine()
	const trials = 400
	for _, n := range []int{66, 130} {
		var steps, conv [2][]float64
		for arm, engine := range []core.Engine{core.EngineSparse, core.EngineBatch} {
			for i := 0; i < trials; i++ {
				res, err := core.Run(sgl.Proto, n, core.Options{
					Seed: uint64(arm*100000 + i + 1), Engine: engine, Detector: core.QuiescenceDetector(),
					Initial: twoLines(t, sgl.Proto, n),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("n=%d %v seed %d: not quiescent after %d steps", n, engine, arm*100000+i+1, res.Steps)
				}
				steps[arm] = append(steps[arm], float64(res.Steps))
				conv[arm] = append(conv[arm], float64(res.ConvergenceTime))
			}
		}
		crit := stats.KSThreshold(trials, trials, 0.001)
		for _, c := range []struct {
			name string
			xs   [2][]float64
		}{{"Steps", steps}, {"ConvergenceTime", conv}} {
			if d := stats.KSStatistic(c.xs[0], c.xs[1]); d > crit {
				t.Errorf("n=%d %s: KS D = %.4f > %.4f (sparse vs batch)", n, c.name, d, crit)
			}
		}
	}
}

// TestBatchCollapseTwoLinesBudgetLaw is TestBatchCollapseTwoLinesLaw
// with the step budget at the sparse arm's median crossing, so about
// half the runs end inside a collapse epoch — one that, on a line this
// short, would have visited the strip's end. Where the walker stands
// then (or whether it already finished at one end, or the leaders have
// not yet met) must match the sparse engine by two-sample chi-square
// at α = 0.001 over 400 trials each.
func TestBatchCollapseTwoLinesBudgetLaw(t *testing.T) {
	t.Parallel()
	sgl := protocols.SimpleGlobalLine()
	const trials = 400
	for _, n := range []int{66, 130} {
		run := func(engine core.Engine, seed uint64, budget int64) core.Result {
			res, err := core.Run(sgl.Proto, n, core.Options{
				Seed: seed, Engine: engine, Detector: core.QuiescenceDetector(),
				Initial: twoLines(t, sgl.Proto, n), MaxSteps: budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// The budget: the median crossing of a separate sparse sample.
		var crossing []int64
		for i := 0; i < trials; i++ {
			crossing = append(crossing, run(core.EngineSparse, uint64(200000+i+1), 0).Steps)
		}
		slices.Sort(crossing)
		budget := crossing[trials/2]
		const bins = 16
		var hist [2][]int64
		var cut, collapsedCut int
		for arm, engine := range []core.Engine{core.EngineSparse, core.EngineBatch} {
			hist[arm] = make([]int64, bins+3)
			for i := 0; i < trials; i++ {
				res := run(engine, uint64(arm*100000+i+1), budget)
				hist[arm][walkerCell(t, res.Final, bins)]++
				if engine == core.EngineBatch && !res.Converged {
					cut++
					if res.Metrics.CollapsedLandings > 0 {
						collapsedCut++
					}
				}
			}
		}
		if cut < trials/4 || collapsedCut == 0 {
			t.Fatalf("n=%d budget %d: %d batch runs cut, %d of them after a collapse; want the budget to cut inside collapses",
				n, budget, cut, collapsedCut)
		}
		stat, df := stats.ChiSquareTwoSample(hist[0], hist[1])
		if df == 0 {
			t.Fatalf("n=%d: degenerate histograms %v vs %v", n, hist[0], hist[1])
		}
		if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
			t.Errorf("n=%d budget %d: walker-position chi-square %.2f > %.2f (df %d)\nsparse %v\nbatch  %v",
				n, budget, stat, crit, df, hist[0], hist[1])
		}
	}
}

// walkerCell bins a two-lines run's final configuration: the walker's
// node (the merged line runs 0…n−1) in one of `bins` bands, or — with
// no walker — bins for a finished merge whose leader stands at the
// left or the right end, and one for leaders that have not met.
func walkerCell(t *testing.T, cfg *core.Config, bins int) int {
	t.Helper()
	n := cfg.N()
	var leaders []int
	for u := 0; u < n; u++ {
		switch cfg.Protocol().StateName(cfg.Node(u)) {
		case "w":
			return u * bins / n
		case "l":
			leaders = append(leaders, u)
		}
	}
	switch {
	case len(leaders) == 2:
		return bins + 2
	case len(leaders) == 1 && leaders[0] < n/2:
		return bins
	case len(leaders) == 1:
		return bins + 1
	}
	panic(fmt.Sprintf("no walker and %d leaders", len(leaders)))
}

// TestBatchCollapseEpochWork pins the collapse's work on a long
// crossing: from the two-lines configuration at n = 4096, run to
// quiescence over three seeds, the epochs must average at least 2¹²
// collapsed landings each. An epoch runs up to kernelPass = 2¹⁶
// landings and stops early only on a visit to its strip's end, so a
// walker crossing ~2,000 nodes pays a few epochs per 2¹⁶ landings; a
// collapse bounded by the walker's distance to the end pays one epoch
// per few hundred.
func TestBatchCollapseEpochWork(t *testing.T) {
	t.Parallel()
	sgl := protocols.SimpleGlobalLine()
	const n = 4096
	var epochs, collapsed int64
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := core.Run(sgl.Proto, n, core.Options{
			Seed: seed, Engine: core.EngineBatch, Detector: core.QuiescenceDetector(),
			MaxSteps: 1 << 62, Initial: twoLines(t, sgl.Proto, n),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: not quiescent after %d steps", seed, res.Steps)
		}
		epochs += res.Metrics.FastForwardEpochs
		collapsed += res.Metrics.CollapsedLandings
	}
	if epochs == 0 || epochs > collapsed>>12 {
		t.Fatalf("%d epochs for %d collapsed landings; want at most one per 2^12", epochs, collapsed)
	}
}

// twoLines is protocols.TwoLinesInitial for a test.
func twoLines(t *testing.T, p *core.Protocol, n int) *core.Config {
	t.Helper()
	cfg, err := protocols.TwoLinesInitial(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
