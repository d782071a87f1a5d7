package stats

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"testing"
)

// The sampler laws are pinned against literal simulations — flipped
// coins, shuffled urns, stepped walks — with a two-sample chi-square
// at α = 0.001, mirroring the harness internal/core uses for its
// bucket samplers. *rand/v2.Rand satisfies Source directly, so the
// tests need no engine import.

const samplerLawTrials = 4000

func newSource(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// samplerChiSquare runs a two-sample homogeneity test on two count
// histograms and fails if the distributions differ at α = 0.001.
func samplerChiSquare(t *testing.T, label string, a, b []int64) {
	t.Helper()
	stat, df := ChiSquareTwoSample(a, b)
	if df == 0 {
		t.Fatalf("%s: chi-square test degenerate (df = 0): histograms %v vs %v", label, a, b)
	}
	if crit := ChiSquareCritical(df, 0.001); stat > crit {
		t.Errorf("%s: chi-square stat %.2f > critical %.2f (df %d)\n sampler: %v\n brute:   %v",
			label, stat, crit, df, a, b)
	}
}

// TestBinomialLawMatch pins both fairBinomial paths against literally
// flipped coins: the popcount counter below popcountMax and BTRS
// rejection from there up. TestBinomialExactPMF covers the populations
// too large to flip.
func TestBinomialLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		branch string
		n      int64
		seed   uint64
	}{
		{"popcount/word+remainder", 100, 3},
		{"popcount/one-word", 64, 4},
		{"popcount/sub-word", 3, 5},
		{"btrs", popcountMax + 100, 8},
	}
	for _, tc := range cases {
		srcA := newSource(100 + tc.seed)
		srcB := newSource(200 + tc.seed)
		histA := make([]int64, tc.n+1)
		histB := make([]int64, tc.n+1)
		for trial := 0; trial < samplerLawTrials; trial++ {
			histA[fairBinomial(srcA, tc.n)]++
			var brute int64
			for j := int64(0); j < tc.n; j++ {
				if srcB.Float64() < 0.5 {
					brute++
				}
			}
			histB[brute]++
		}
		samplerChiSquare(t, "fairBinomial/"+tc.branch, histA, histB)
	}
}

// exactLawTrials is the sample size of the one-sample chi-square tests
// against an exact pmf: no literal simulation to pay for, so it can be
// large enough to see a rejection sampler's acceptance test mis-set.
const exactLawTrials = 400_000

// binomialPMFChiSquare draws exactLawTrials variates and compares
// their histogram with the exact Binomial(n, p) pmf, built from
// lnChoose, by a one-sample chi-square at α = 0.001. Bins cover the
// mean ± 8 standard deviations (plus a margin for tiny means), the
// draws beyond them are clamped into the edge bins, and sparse bins
// are pooled to expected counts ≥ 5.
func binomialPMFChiSquare(t *testing.T, label string, n int64, p float64, draw func() int64) {
	t.Helper()
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	lo := max(0, int64(mean-8*sd)-10)
	hi := min(n, int64(mean+8*sd)+10)
	obs := make([]int64, hi-lo+1)
	for trial := 0; trial < exactLawTrials; trial++ {
		k := draw()
		if k < 0 || k > n {
			t.Fatalf("%s: draw %d outside [0, %d]", label, k, n)
		}
		obs[min(max(k, lo), hi)-lo]++
	}
	exp := make([]float64, len(obs))
	lp, lq := math.Log(p), math.Log1p(-p)
	for k := lo; k <= hi; k++ {
		exp[k-lo] = math.Exp(lnChoose(n, k)+float64(k)*lp+float64(n-k)*lq) * exactLawTrials
	}
	pooledObs, pooledExp := poolBins(obs, exp, 5)
	df := len(pooledObs) - 1
	if df < 1 {
		t.Fatalf("%s: degenerate binning", label)
	}
	if stat, crit := ChiSquareStat(pooledObs, pooledExp), ChiSquareCritical(df, 0.001); stat > crit {
		t.Errorf("%s: chi-square stat %.2f > critical %.2f (df %d)", label, stat, crit, df)
	}
}

// lnChoose returns ln C(n, k) via lgamma.
func lnChoose(n, k int64) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// TestBinomialExactPMF pins fairBinomial against its exact pmf at
// populations no literal coin simulation reaches, up to n = 2²⁸: the
// popcount counter at n = 10³ and BTRS at 2¹⁶ and 2²⁸.
func TestBinomialExactPMF(t *testing.T) {
	t.Parallel()
	for i, n := range []int64{1000, 1 << 16, 1 << 28} {
		src := newSource(uint64(1300 + 3*i))
		label := fmt.Sprintf("fairBinomial(n=%d)", n)
		binomialPMFChiSquare(t, label, n, 0.5, func() int64 { return fairBinomial(src, n) })
	}
}

// TestWalkDisplacementExactLaw pins the swap-run collapse's
// displacement draw at chunk lengths past popcountMax, up to the
// engine's kernelPass cap of 2¹⁶ steps: the displacement is 2R − J, R ~ Binomial(J, 1/2), so R = (d + J)/2 must be an integer
// with the exact binomial law.
func TestWalkDisplacementExactLaw(t *testing.T) {
	t.Parallel()
	for i, steps := range []int64{1 << 12, 1 << 16} {
		src := newSource(uint64(1400 + i))
		label := fmt.Sprintf("WalkDisplacement(%d)", steps)
		binomialPMFChiSquare(t, label, steps, 0.5, func() int64 {
			d := WalkDisplacement(src, steps)
			if (d+steps)%2 != 0 {
				t.Fatalf("%s: displacement %d has the wrong parity", label, d)
			}
			return (d + steps) / 2
		})
	}
}

// TestHypergeometricLawMatch pins the sampler against a literal
// shuffled urn across cases that exercise each symmetry branch.
func TestHypergeometricLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		draws, marked, total int64
	}{
		{6, 5, 14},  // direct inversion
		{6, 10, 14}, // mark-complement branch
		{9, 4, 14},  // draw/mark swap branch
		{13, 7, 14}, // near-exhaustive draw
		{1, 1, 2},   // minimal
	}
	for i, tc := range cases {
		srcA := newSource(uint64(300 + i))
		srcB := newSource(uint64(400 + i))
		histA := make([]int64, tc.draws+1)
		histB := make([]int64, tc.draws+1)
		urn := make([]int, tc.total)
		for trial := 0; trial < samplerLawTrials; trial++ {
			histA[Hypergeometric(srcA, tc.draws, tc.marked, tc.total)]++
			for j := range urn {
				urn[j] = 0
				if int64(j) < tc.marked {
					urn[j] = 1
				}
			}
			var brute int64
			for j := int64(0); j < tc.draws; j++ {
				k := j + srcB.Int64N(tc.total-j)
				urn[j], urn[k] = urn[k], urn[j]
				brute += int64(urn[j])
			}
			histB[brute]++
		}
		samplerChiSquare(t, "Hypergeometric", histA, histB)
	}
}

// TestWalkDisplacementLawMatch pins the one-draw displacement against
// a literally stepped walk.
func TestWalkDisplacementLawMatch(t *testing.T) {
	t.Parallel()
	for i, steps := range []int64{
		17, // swap-run collapse parameters
		96, // popcount across a word boundary
	} {
		srcA := newSource(uint64(500 + i))
		srcB := newSource(uint64(600 + i))
		// Displacement lives in [−steps, steps]; shift into histogram
		// indices.
		histA := make([]int64, 2*steps+1)
		histB := make([]int64, 2*steps+1)
		for trial := 0; trial < samplerLawTrials; trial++ {
			histA[WalkDisplacement(srcA, steps)+steps]++
			var pos int64
			for j := int64(0); j < steps; j++ {
				if srcB.Uint64()&1 == 0 {
					pos--
				} else {
					pos++
				}
			}
			histB[pos+steps]++
		}
		samplerChiSquare(t, "WalkDisplacement", histA, histB)
	}
}

// TestWalkDisplacementParity: the displacement must have the parity of the step count — the batch engine relies on this to
// land the walker on a path node.
func TestWalkDisplacementParity(t *testing.T) {
	t.Parallel()
	src := newSource(42)
	for steps := int64(1); steps <= 65; steps++ {
		for trial := 0; trial < 50; trial++ {
			d := WalkDisplacement(src, steps)
			if d < -steps || d > steps {
				t.Fatalf("steps=%d: displacement %d out of range", steps, d)
			}
			if (d-steps)%2 != 0 {
				t.Fatalf("steps=%d: displacement %d has wrong parity", steps, d)
			}
		}
	}
}

// TestNegBinomialLawMatch pins the gamma–Poisson mixture against a
// literal sum of geometric gaps (failures before each of r successes)
// — exactly the quantity the batch engine collapses: the scheduler
// misses interleaving r landings.
func TestNegBinomialLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		r int64
		p float64
	}{
		{4, 0.5},
		{9, 0.8},
		{2, 0.15},
	}
	for i, tc := range cases {
		srcA := newSource(uint64(700 + i))
		srcB := newSource(uint64(800 + i))
		// Bin the unbounded support: last bin is the tail.
		maxBin := int64(float64(tc.r)*(1-tc.p)/tc.p)*3 + 10
		histA := make([]int64, maxBin+1)
		histB := make([]int64, maxBin+1)
		for trial := 0; trial < samplerLawTrials; trial++ {
			a := NegBinomial(srcA, tc.r, tc.p)
			if a > maxBin {
				a = maxBin
			}
			histA[a]++
			var brute int64
			for s := int64(0); s < tc.r; s++ {
				for srcB.Float64() >= tc.p {
					brute++
				}
			}
			if brute > maxBin {
				brute = maxBin
			}
			histB[brute]++
		}
		samplerChiSquare(t, "NegBinomial", histA, histB)
	}
}

// TestPoissonLawMatch pins both Poisson regimes against the
// theoretical pmf with a one-sample chi-square: the small-mean
// multiplication method and the PTRS rejection path.
func TestPoissonLawMatch(t *testing.T) {
	t.Parallel()
	for i, mean := range []float64{3.5, 80} {
		src := newSource(uint64(1100 + i))
		sd := math.Sqrt(mean)
		lo := int64(math.Max(0, mean-6*sd))
		hi := int64(mean + 6*sd)
		nbins := hi - lo + 2 // [under-lo tail] handled by clamping into edge bins
		obs := make([]int64, nbins)
		for trial := 0; trial < samplerLawTrials; trial++ {
			k := Poisson(src, mean)
			idx := k - lo
			if idx < 0 {
				idx = 0
			}
			if idx >= nbins {
				idx = nbins - 1
			}
			obs[idx]++
		}
		expected := make([]float64, nbins)
		for k := int64(0); k <= hi+40; k++ {
			lg, _ := math.Lgamma(float64(k + 1))
			p := math.Exp(float64(k)*math.Log(mean) - mean - lg)
			idx := k - lo
			if idx < 0 {
				idx = 0
			}
			if idx >= nbins {
				idx = nbins - 1
			}
			expected[idx] += p * samplerLawTrials
		}
		// Pool sparse tail bins so expected counts stay ≥ 5.
		pooledObs, pooledExp := poolBins(obs, expected, 5)
		stat := ChiSquareStat(pooledObs, pooledExp)
		df := len(pooledObs) - 1
		if df < 1 {
			t.Fatalf("Poisson(%g): degenerate binning", mean)
		}
		if crit := ChiSquareCritical(df, 0.001); stat > crit {
			t.Errorf("Poisson(%g): chi-square stat %.2f > critical %.2f (df %d)", mean, stat, crit, df)
		}
	}
}

// poolBins merges adjacent bins until every expected count reaches
// minExp, keeping the one-sample chi-square approximation valid.
func poolBins(obs []int64, exp []float64, minExp float64) ([]int64, []float64) {
	var pooledObs []int64
	var pooledExp []float64
	var accO int64
	var accE float64
	for i := range obs {
		accO += obs[i]
		accE += exp[i]
		if accE >= minExp {
			pooledObs = append(pooledObs, accO)
			pooledExp = append(pooledExp, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 && len(pooledExp) > 0 {
		pooledObs[len(pooledObs)-1] += accO
		pooledExp[len(pooledExp)-1] += accE
	}
	return pooledObs, pooledExp
}

// TestGammaMoments sanity-checks the Marsaglia–Tsang sampler from its
// shape-1 floor up: Gamma(shape, 1) has mean = variance = shape.
func TestGammaMoments(t *testing.T) {
	t.Parallel()
	for i, shape := range []float64{1, 2.5, 40} {
		src := newSource(uint64(1201 + i))
		const trials = 20000
		var sum, sumSq float64
		for trial := 0; trial < trials; trial++ {
			x := Gamma(src, shape)
			if x < 0 {
				t.Fatalf("Gamma(%g) returned negative %g", shape, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		se := math.Sqrt(shape / trials) // sd of the sample mean
		if math.Abs(mean-shape) > 6*se {
			t.Errorf("Gamma(%g): sample mean %.3f, want %.3f ± %.3f", shape, mean, shape, 6*se)
		}
		variance := sumSq/trials - mean*mean
		if math.Abs(variance-shape) > 0.15*shape+6*se {
			t.Errorf("Gamma(%g): sample variance %.3f, want %.3f", shape, variance, shape)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Gamma(0.5) did not panic; shapes below 1 are outside its domain")
		}
	}()
	Gamma(newSource(1200), 0.5)
}

// FuzzHypergeometric fuzzes the support invariant of the scalar
// hypergeometric sampler — the batch engine's budget cut inside a
// collapsed swap run: any valid (draws, marked, total) must yield
// max(0, draws+marked−total) ≤ k ≤ min(draws, marked).
func FuzzHypergeometric(f *testing.F) {
	f.Add(uint64(1), int64(6), int64(5), int64(14))
	f.Add(uint64(2), int64(0), int64(0), int64(0))
	f.Add(uint64(3), int64(1000), int64(999), int64(1000))
	f.Add(uint64(4), int64(1<<19), int64(1<<18), int64(1<<20))
	f.Fuzz(func(t *testing.T, seed uint64, draws, marked, total int64) {
		if total < 0 {
			total = -(total + 1)
		}
		// The inversion takes O(sd) terms: cap the population so a
		// fuzz case stays sub-second.
		total %= 1 << 20
		if marked < 0 {
			marked = -(marked + 1)
		}
		if draws < 0 {
			draws = -(draws + 1)
		}
		if total > 0 {
			marked %= total + 1
			draws %= total + 1
		} else {
			marked, draws = 0, 0
		}
		src := newSource(seed)
		k := Hypergeometric(src, draws, marked, total)
		lo := draws + marked - total
		if lo < 0 {
			lo = 0
		}
		hi := draws
		if marked < hi {
			hi = marked
		}
		if k < lo || k > hi {
			t.Fatalf("Hypergeometric(%d, %d, %d) = %d outside support [%d, %d]",
				draws, marked, total, k, lo, hi)
		}
	})
}

// FuzzBinomial fuzzes the support invariants of fairBinomial and of
// the swap-run displacement built on it, over both paths: 0 ≤ k ≤ n
// for n up to 2⁶², and WalkDisplacement(J) inside [−J, J] with the
// parity of J. Each call must also return: popcount takes at most 16
// words and BTRS O(1) expected uniform pairs, so a hang shows as the
// fuzzer's per-input timeout.
func FuzzBinomial(f *testing.F) {
	f.Add(uint64(1), int64(10))
	f.Add(uint64(2), int64(popcountMax-1))
	f.Add(uint64(3), int64(popcountMax))
	f.Add(uint64(4), int64(1<<16))
	f.Add(uint64(5), int64(1)<<62)
	f.Add(uint64(6), int64(1<<28))
	f.Add(uint64(7), int64(64))
	f.Add(uint64(8), int64(1))
	f.Add(uint64(9), int64(0))
	f.Fuzz(func(t *testing.T, seed uint64, n int64) {
		if n < 0 {
			n = -(n + 1)
		}
		n %= 1<<62 + 1
		src := newSource(seed)
		if k := fairBinomial(src, n); k < 0 || k > n {
			t.Fatalf("fairBinomial(%d) = %d outside [0, %d]", n, k, n)
		}
		if d := WalkDisplacement(src, n); d < -n || d > n || (d+n)%2 != 0 {
			t.Fatalf("WalkDisplacement(%d) = %d: outside [−J, J] or wrong parity", n, d)
		}
	})
}

// TestWalkDisplacementDrawCost pins the cost that makes collapsing long
// swap runs cheap, through a counting source wrapper. Below popcountMax
// the displacement counts popcounts: 512 steps take exactly ⌈512/64⌉ = 8
// uniform words and no floats. From popcountMax up to the kernelPass
// cap of 2¹⁶ steps it must consume O(1) uniforms on average — BTRS
// takes one float pair per iteration at an acceptance rate near 0.8 —
// and no 64-bit words, where popcount would take 1,024 per draw.
func TestWalkDisplacementDrawCost(t *testing.T) {
	t.Parallel()
	src := &countingSource{Rand: newSource(9)}
	if d := WalkDisplacement(src, 512); d < -512 || d > 512 {
		t.Fatalf("displacement %d out of range", d)
	}
	if src.uint64s != 8 || src.float64s != 0 {
		t.Errorf("512-step displacement consumed %d words and %d floats; want 8 words, 0 floats",
			src.uint64s, src.float64s)
	}
	src = &countingSource{Rand: newSource(10)}
	const steps, draws = int64(1 << 16), 10_000
	for i := 0; i < draws; i++ {
		if d := WalkDisplacement(src, steps); d < -steps || d > steps {
			t.Fatalf("displacement %d out of range", d)
		}
	}
	if perDraw := float64(src.float64s) / draws; src.uint64s != 0 || perDraw > 3 {
		t.Errorf("%d-step displacements consumed %d words and %.2f floats per draw; want 0 words, ≤ 3 floats",
			steps, src.uint64s, perDraw)
	}
}

// TestHypergeometricInversionTopUniform pins the faults a top uniform
// u = 1 − 2⁻⁵³ exposed in the inversion walk. At mean 4 the walk must
// end in the tail, not walk every term to min(draws, marked) = 4,096.
// At mean 2,047.5 (sd ≈ 32), where pmf(0) underflows, one uniform must
// give one quantile — about 8 sd from the mean — rather than a sum of
// rounds that each land at their own extreme (780, 40 sd off, when the
// draw was split into rounds). At the strip-exit bisection's first
// midpoint (mean 2¹⁴, sd 64) the walk must return from the tail rather
// than redraw a uniform that never changes.
func TestHypergeometricInversionTopUniform(t *testing.T) {
	t.Parallel()
	src := &topSource{Rand: newSource(12)}
	if k := Hypergeometric(src, 1<<20, 1<<12, 1<<30); k > 100 {
		t.Fatalf("Hypergeometric(2^20, 2^12, 2^30) at the top uniform = %d; want the walk to end in the tail", k)
	}
	if k := Hypergeometric(src, 1<<23, 4095, 1<<24-1); math.Abs(float64(k)-2047.5) > 10*32 {
		t.Fatalf("Hypergeometric(2^23, 4095, 2^24-1) at the top uniform = %d; want within 10 sd of 2047.5", k)
	}
	if k := Hypergeometric(src, 1<<15, 1<<15, 1<<16); math.Abs(float64(k)-1<<14) > 10*64 {
		t.Fatalf("Hypergeometric(2^15, 2^15, 2^16) at the top uniform = %d; want within 10 sd of 2^14", k)
	}
}

// TestLnHyperZeroPrecision pins the inversion's anchor against direct
// sums (lnHyperDirect). ln pmf(0) on the canonical form n ≤ K ≤ N − K
// is checked at the budget cut's sizes (N up to 2⁴¹, where differences
// of lgammas lose about 0.004) and at small urns on the lgamma branch.
// ln pmf(mode) in the caller's coordinates, carried there by the law's
// symmetries, is checked at the bisection's totals (9, 64, 2¹⁶) and
// the budget cut's (2³⁰ to 2⁶⁰).
func TestLnHyperZeroPrecision(t *testing.T) {
	t.Parallel()
	check := func(label string, got, want float64) {
		t.Helper()
		if tol := 1e-9 * max(1, math.Abs(want)); !(math.Abs(got-want) <= tol) { // NaN fails too
			t.Errorf("%s = %.12g, direct sum %.12g", label, got, want)
		}
	}
	zeros := [][3]int64{ // n, K, N
		{5, 6, 14},
		{1, 1, 2},
		{4095, 1<<23 - 1, 1<<24 - 1},
		{1 << 12, 1 << 20, 1 << 30},
		{1<<16 - 1, 1 << 39, 1 << 40},
		{1 << 12, 1 << 38, 1 << 40},
		{1 << 16, 1<<40 - 1<<16, 1 << 41},
	}
	for _, c := range zeros {
		n, K, N := c[0], c[1], c[2]
		check(fmt.Sprintf("lnHyperZero(%d, %d, %d)", n, K, N), lnHyperZero(n, K, N), lnHyperDirect(n, K, N, 0))
	}
	modes := [][3]int64{ // draws, marked, total
		{4, 6, 9},
		{32, 30, 64},
		{40, 16, 64},
		{1 << 15, 1 << 15, 1 << 16},
		{1<<15 - 2, 1 << 15, 1 << 16}, // a₁/a₂ = 3/32771, lost by log1p(−K/a₂)
		{1 << 15, 1<<15 + 300, 1 << 16},
		{1000, 40000, 1 << 16},
		{50000, 40000, 1 << 16},
		{1 << 23, 4095, 1<<24 - 1},
		{1 << 20, 1 << 12, 1 << 30},
		{1 << 38, 1<<12 - 1, 1 << 40},
		{1<<16 - 1, 1<<47 + 5, 1 << 48},
		{1 << 59, 4095, 1 << 60},
		{1<<60 - 1<<20, 1 << 12, 1 << 60},
	}
	for _, c := range modes {
		n, K, N := c[0], c[1], c[2]
		fn, fK, fN := float64(n), float64(K), float64(N)
		mode := min(max(int64((fn+1)*(fK+1)/(fN+2)), n+K-N, 0), n, K)
		check(fmt.Sprintf("lnHyperPMF(%d, %d, %d, mode %d)", n, K, N, mode),
			lnHyperPMF(n, K, N, mode), lnHyperDirect(n, K, N, mode))
	}
}

// lnHyperDirect returns ln pmf(k) of n draws from N items of which K
// are marked as a compensated sum over the support from its low end:
// after complementing the larger of the draws and the marks when
// n + K > N, so that the support starts at 0,
// ln pmf(0) = Σ_{i<a} ln(1 − b/(N−i)) with a, b the smaller and larger
// of n and K, then ln r(j) for each j < k.
func lnHyperDirect(n, K, N, k int64) float64 {
	switch {
	case n+K <= N:
	case n >= K:
		n, k = N-n, K-k
	default:
		K, k = N-K, n-k
	}
	var sum, comp float64 // Kahan summation
	add := func(x float64) {
		y := x - comp
		next := sum + y
		comp = (next - sum) - y
		sum = next
	}
	a, b := min(n, K), max(n, K)
	for i := int64(0); i < a; i++ {
		if d := N - i; 2*b < d {
			add(math.Log1p(-float64(b) / float64(d)))
		} else {
			add(math.Log(float64(d-b) / float64(d))) // d − b exact
		}
	}
	for j := int64(0); j < k; j++ {
		add(math.Log(float64(K-j) * float64(n-j) / (float64(j+1) * float64(N-K-n+j+1))))
	}
	return sum
}

// TestHypergeometricExactPMF pins Hypergeometric against its exact pmf
// at the budget cut's shapes, at totals no literal urn reaches: a few
// thousand marked among 2²⁴–2⁶⁰, mean 4 to 2,047.5, with pmf(0) down
// to e⁻²⁸³⁸. TestHyperFromModeExactPMF covers the bisection's shapes.
func TestHypergeometricExactPMF(t *testing.T) {
	t.Parallel()
	cases := [][3]int64{ // draws, marked, total
		{1 << 30, 1 << 12, 1 << 40},   // mean 4
		{1 << 36, 1 << 12, 1 << 40},   // mean 256
		{1 << 38, 1<<12 - 1, 1 << 40}, // mean ≈ 1024, pmf(0) ≈ e⁻¹¹⁷⁸
		{1 << 23, 4095, 1<<24 - 1},    // pmf(0) ≈ e⁻²⁸³⁸
		{1 << 59, 4095, 1 << 60},      // (draws+1)(marked+1) overflows int64
	}
	for i, c := range cases {
		src := newSource(uint64(1500 + i))
		label := fmt.Sprintf("Hypergeometric(%d, %d, %d)", c[0], c[1], c[2])
		hyperPMFChiSquare(t, label, c[0], c[1], c[2], func() int64 { return Hypergeometric(src, c[0], c[1], c[2]) })
	}
}

// hyperPMFChiSquare is binomialPMFChiSquare for the hypergeometric law
// of n draws from N items of which K are marked. The expected counts
// come from the pmf ratio recursion run outward from the mode and
// normalized over the bins (mean ± 8 sd plus a margin), so they need
// no starting mass at all.
func hyperPMFChiSquare(t *testing.T, label string, n, K, N int64, draw func() int64) {
	t.Helper()
	fn, fK, fN := float64(n), float64(K), float64(N)
	mean := fn * fK / fN
	sd := math.Sqrt(mean * (1 - fK/fN) * (fN - fn) / (fN - 1))
	support := min(n, K)
	lo := max(0, n+K-N, int64(mean-8*sd)-10)
	hi := min(support, int64(mean+8*sd)+10)
	ratio := func(k int64) float64 { // pmf(k+1)/pmf(k)
		return float64(K-k) * float64(n-k) / (float64(k+1) * float64(N-K-n+k+1))
	}
	mode := min(max(int64(math.Floor((fn+1)*(fK+1)/(fN+2))), lo), hi)
	w := make([]float64, hi-lo+1)
	w[mode-lo] = 1
	for k := mode; k < hi; k++ {
		w[k+1-lo] = w[k-lo] * ratio(k)
	}
	for k := mode; k > lo; k-- {
		w[k-1-lo] = w[k-lo] / ratio(k-1)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	obs := make([]int64, len(w))
	exp := make([]float64, len(w))
	for i, x := range w {
		exp[i] = x / sum * exactLawTrials
	}
	for trial := 0; trial < exactLawTrials; trial++ {
		k := draw()
		if k < max(0, n+K-N) || k > support {
			t.Fatalf("%s: draw %d outside the support", label, k)
		}
		obs[min(max(k, lo), hi)-lo]++
	}
	pooledObs, pooledExp := poolBins(obs, exp, 5)
	df := len(pooledObs) - 1
	if df < 1 {
		t.Fatalf("%s: degenerate binning", label)
	}
	if stat, crit := ChiSquareStat(pooledObs, pooledExp), ChiSquareCritical(df, 0.001); stat > crit {
		t.Errorf("%s: chi-square stat %.2f > critical %.2f (df %d)", label, stat, crit, df)
	}
}

// topSource returns the largest uniform Float64 can.
type topSource struct{ *rand.Rand }

func (topSource) Float64() float64 { return math.Nextafter(1, 0) }

type countingSource struct {
	*rand.Rand
	uint64s  int
	float64s int
}

func (c *countingSource) Uint64() uint64 {
	c.uint64s++
	return c.Rand.Uint64()
}

func (c *countingSource) Float64() float64 {
	c.float64s++
	return c.Rand.Float64()
}
