package universal

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/stats"
	"repro/internal/tm"
)

// inversionWait is the reference the one-draw samplers are tested
// against: one wait of success probability p, landing step included,
// drawn literally by inversion as ⌈ln U / ln(1−p)⌉.
func inversionWait(rng *core.RNG, p float64) int64 {
	if p >= 1 {
		return 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return max(int64(math.Ceil(math.Log(u)/math.Log(1-p))), 1)
}

// chargeLawMatches compares, by a two-sample KS test at α = 0.001,
// draws of one charge call on an n-node model against draws of ref.
func chargeLawMatches(t *testing.T, name string, n int, call func(*chargeModel), ref func(rng *core.RNG) int64) {
	t.Helper()
	const draws = 20000
	charge := newChargeModel(n, core.NewRNG(uint64(n)))
	refRNG := core.NewRNG(uint64(n) + 1)
	got := make([]float64, draws)
	want := make([]float64, draws)
	for i := range got {
		before := charge.Steps()
		call(charge)
		got[i] = float64(charge.Steps() - before)
		want[i] = float64(ref(refRNG))
	}
	d, crit := stats.KSStatistic(got, want), stats.KSThreshold(draws, draws, 0.001)
	if d > crit {
		t.Errorf("%s: KS D = %.4f > %.4f against literal inversion draws", name, d, crit)
	}
}

// TestChargeModelWaitsLaw: waits(k) draws the law of k sequential
// specific-pair waits, each drawn by inversion.
func TestChargeModelWaitsLaw(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ n, k int }{{20, 1}, {20, 7}, {64, 300}, {256, 40}} {
		p := 2 / (float64(c.n) * float64(c.n-1))
		chargeLawMatches(t, fmt.Sprintf("waits(%d) at n=%d", c.k, c.n), c.n,
			func(charge *chargeModel) { charge.waits(int64(c.k)) },
			func(rng *core.RNG) int64 {
				var sum int64
				for i := 0; i < c.k; i++ {
					sum += inversionWait(rng, p)
				}
				return sum
			})
	}
	zero := newChargeModel(10, core.NewRNG(5))
	zero.waits(0)
	if zero.Steps() != 0 {
		t.Fatalf("waits(0) charged %d", zero.Steps())
	}
}

// TestChargeModelWaitAny: waitAny(m) draws the law of one wait for any
// of m pairs; m ≤ 0 waits for a single pair.
func TestChargeModelWaitAny(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ n, m int }{{20, 10}, {20, 0}, {64, 1}, {256, 500}} {
		p := float64(max(c.m, 1)) * 2 / (float64(c.n) * float64(c.n-1))
		chargeLawMatches(t, fmt.Sprintf("waitAny(%d) at n=%d", c.m, c.n), c.n,
			func(charge *chargeModel) { charge.waitAny(c.m) },
			func(rng *core.RNG) int64 { return inversionWait(rng, p) })
	}
	// Saturated probability costs exactly one step per wait.
	sat := newChargeModel(4, core.NewRNG(3))
	sat.waitAny(100)
	if sat.Steps() != 1 {
		t.Fatalf("saturated waitAny charged %d", sat.Steps())
	}
	// Non-positive m falls back to a single-pair wait.
	fb := newChargeModel(6, core.NewRNG(4))
	fb.waitAny(0)
	if fb.Steps() < 1 {
		t.Fatal("fallback waitAny charged nothing")
	}
}

// TestProbeWaitsCountsThePass: the closed form equals the per-pair sum
// of a probe pass, 2(i+1) + 2(j+1) + 1 waits for the pair (i, j).
func TestProbeWaitsCountsThePass(t *testing.T) {
	t.Parallel()
	for k := 0; k <= 40; k++ {
		var want int64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				want += int64(2*(i+1) + 2*(j+1) + 1)
			}
		}
		if got := probeWaits(k); got != want {
			t.Fatalf("probeWaits(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestLogWastePhasesChargeTheirWaits: every wait costs at least one
// step, so each charged phase of LogWaste is at least its wait count —
// the count-and-release walks alone are 2n−1 waits — and the phases sum
// to the total.
func TestLogWastePhasesChargeTheirWaits(t *testing.T) {
	t.Parallel()
	const n = 24
	lang := tm.HasEdge()
	res, err := LogWaste(lang, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := len(res.UsefulNodes)
	want := map[string]int64{
		"count-and-release": 2*n - 1,
		"draw-and-decide":   int64(res.Attempts) * (2*probeWaits(k) + deciderWaits(lang, k, n-k)),
		"release":           int64(k),
	}
	var sum int64
	for _, ph := range res.PhaseSteps {
		sum += ph.Steps
		if least, ok := want[ph.Name]; ok {
			if ph.Steps < least {
				t.Errorf("phase %s charged %d steps for %d waits", ph.Name, ph.Steps, least)
			}
			delete(want, ph.Name)
		}
	}
	if len(want) != 0 {
		t.Errorf("phases %v not recorded", want)
	}
	if sum != res.Steps {
		t.Errorf("phase steps sum %d ≠ total %d", sum, res.Steps)
	}
}

func TestDrawRandomGraphIsHalfDense(t *testing.T) {
	t.Parallel()
	charge := newChargeModel(30, core.NewRNG(6))
	const k, trials = 12, 40
	edges := 0
	for i := 0; i < trials; i++ {
		edges += drawRandomGraph(charge, k).M()
	}
	mean := float64(edges) / trials
	want := 0.5 * float64(k*(k-1)/2)
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("G(k,1/2) density %f, want ≈ %f", mean, want)
	}
	if charge.Steps() == 0 {
		t.Fatal("drawing charged nothing")
	}
}

func TestLineOrder(t *testing.T) {
	t.Parallel()
	order, err := lineOrder(graph.Line(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("order %v", order)
	}
	for i := 0; i+1 < len(order); i++ {
		if d := order[i] - order[i+1]; d != 1 && d != -1 {
			t.Fatalf("order %v is not a path walk", order)
		}
	}
	if _, err := lineOrder(graph.Ring(5)); err == nil {
		t.Fatal("ring accepted as line")
	}
	single, err := lineOrder(graph.New(1))
	if err != nil || len(single) != 1 {
		t.Fatalf("singleton order %v, %v", single, err)
	}
}

func TestWithDead(t *testing.T) {
	t.Parallel()
	base := protocols.SimpleGlobalLine()
	ext, dead, err := withDead(base.Proto)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Size() != base.Proto.Size()+1 {
		t.Fatalf("extended size %d", ext.Size())
	}
	if name := ext.StateName(dead); name != "dead" {
		t.Fatalf("dead state named %q", name)
	}
	// Dead nodes must never react.
	for s := 0; s < ext.Size(); s++ {
		for _, e := range []bool{false, true} {
			if ext.EffectiveOn(dead, core.State(s), e) {
				t.Fatalf("dead state reacts with %s", ext.StateName(core.State(s)))
			}
		}
	}
}

func TestLinePhaseBuildsOrderedLine(t *testing.T) {
	t.Parallel()
	live := []int{1, 3, 5, 7, 9, 11}
	_, ordered, res, err := linePhase(protocols.SimpleGlobalLine(), 12, live, nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("line phase did not converge")
	}
	if len(ordered) != len(live) {
		t.Fatalf("ordered %v", ordered)
	}
	seen := make(map[int]bool, len(ordered))
	for _, u := range ordered {
		if u%2 == 0 {
			t.Fatalf("dead node %d in the line", u)
		}
		if seen[u] {
			t.Fatalf("duplicate node %d", u)
		}
		seen[u] = true
	}
}

func TestSupernodesTooSmall(t *testing.T) {
	t.Parallel()
	if _, err := Supernodes(7, 1); err == nil {
		t.Fatal("n=7 accepted")
	}
}

func TestPipelineTooSmall(t *testing.T) {
	t.Parallel()
	if _, err := LinearWasteHalf(tm.Connected(), 4, 1); err == nil {
		t.Fatal("tiny population accepted")
	}
	if _, err := LinearWasteThird(tm.EvenEdges(), 6, 1); err == nil {
		t.Fatal("tiny population accepted")
	}
	if _, err := LogWaste(tm.HasEdge(), 4, 1); err == nil {
		t.Fatal("tiny population accepted")
	}
}

// TestPipelinePhaseAccounting: phase steps must sum to the total.
func TestPipelinePhaseAccounting(t *testing.T) {
	t.Parallel()
	res, err := LinearWasteHalf(tm.EvenEdges(), 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ph := range res.PhaseSteps {
		if ph.Steps < 0 {
			t.Fatalf("negative phase steps: %+v", ph)
		}
		sum += ph.Steps
	}
	if sum != res.Steps {
		t.Fatalf("phase steps sum %d ≠ total %d", sum, res.Steps)
	}
}

// TestUniversalDeterminism: identical seeds give identical pipelines.
func TestUniversalDeterminism(t *testing.T) {
	t.Parallel()
	a, err := LinearWasteHalf(tm.Connected(), 14, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LinearWasteHalf(tm.Connected(), 14, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Attempts != b.Attempts || !a.Output.Equal(b.Output) {
		t.Fatal("identical seeds produced different pipelines")
	}
}

// TestRetryLoopRejects: a language that rejects the first draws forces
// Attempts > 1 with non-vanishing probability; use "complete graph",
// which G(k,1/2) essentially never satisfies — bounded by maxAttempts,
// so use a small k where acceptance is merely rare-ish and seeds are
// chosen to show at least one retry.
func TestRetryLoopRejects(t *testing.T) {
	t.Parallel()
	// Odd-edge graphs have probability 1/2 under G(k,1/2): expect ≈2
	// attempts on average; find a seed with ≥ 2 attempts quickly.
	odd := tm.GraphLanguage{
		Name:   "odd-edges",
		Space:  tm.LogSpace,
		Decide: func(g *graph.Graph) bool { return g.M()%2 == 1 },
	}
	sawRetry := false
	for seed := uint64(1); seed <= 10 && !sawRetry; seed++ {
		res, err := LinearWasteHalf(odd, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output.M()%2 != 1 {
			t.Fatalf("output %v has even edges", res.Output)
		}
		if res.Attempts > 1 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no retry observed across 10 seeds (p < 1e-3)")
	}
}
