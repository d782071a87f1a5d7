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

// TestBinomialLawMatch pins every Binomial code path against literally
// flipped coins: the fair-coin popcount counter, the CDF-inversion
// walk, the complement branch, and BTRS rejection (n·min(p, 1−p) ≥ 10,
// fair coins from popcountMax up). TestBinomialExactPMF covers the
// populations too large to flip.
func TestBinomialLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		branch string
		n      int64
		p      float64
	}{
		{"inversion", 10, 0.3},
		{"inversion/sparse", 20, 0.05},
		{"complement/inversion", 10, 0.7},
		{"popcount/word+remainder", 100, 0.5},
		{"popcount/one-word", 64, 0.5},
		{"popcount/sub-word", 3, 0.5},
		{"btrs", 40, 0.3},
		{"complement/btrs", 60, 0.8},
		{"btrs/fair", popcountMax + 100, 0.5},
	}
	for i, tc := range cases {
		srcA := newSource(uint64(100 + i))
		srcB := newSource(uint64(200 + i))
		histA := make([]int64, tc.n+1)
		histB := make([]int64, tc.n+1)
		for trial := 0; trial < samplerLawTrials; trial++ {
			histA[Binomial(srcA, tc.n, tc.p)]++
			var brute int64
			for j := int64(0); j < tc.n; j++ {
				if srcB.Float64() < tc.p {
					brute++
				}
			}
			histB[brute]++
		}
		samplerChiSquare(t, "Binomial/"+tc.branch, histA, histB)
	}
}

// exactLawTrials is the sample size of the one-sample chi-square tests
// against an exact pmf: no literal simulation to pay for, so it can be
// large enough to see a rejection sampler's acceptance test mis-set.
const exactLawTrials = 400_000

// binomialPMFChiSquare draws exactLawTrials variates and compares
// their histogram with the exact Binomial(n, p) pmf, built from
// LnChoose, by a one-sample chi-square at α = 0.001. Bins cover the
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
		exp[k-lo] = math.Exp(LnChoose(n, k)+float64(k)*lp+float64(n-k)*lq) * exactLawTrials
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

// TestBinomialExactPMF pins Binomial against its exact pmf at
// populations no literal coin simulation reaches, up to n = 2²⁸: BTRS
// at every mean from 1 to 2²⁷, the inversion walk and the popcount
// counter at n = 10³, and the complement branch in front of both the
// rejection and the inversion path.
func TestBinomialExactPMF(t *testing.T) {
	t.Parallel()
	cases := []struct {
		n int64
		p float64
	}{
		{1000, 0.5},     // popcount
		{1000, 0.3},     // BTRS
		{1000, 1e-3},    // inversion
		{1 << 16, 0.5},  // BTRS, fair coins
		{1 << 16, 0.3},  // BTRS
		{1 << 16, 1e-3}, // BTRS at n·p = 65.5
		{1 << 28, 0.5},  // BTRS
		{1 << 28, 0.3},  // BTRS
		{1 << 28, 1e-3}, // BTRS
		{1 << 16, 0.7},  // complement → BTRS
		{1000, 0.999},   // complement → inversion
	}
	for i, tc := range cases {
		src := newSource(uint64(1300 + i))
		label := fmt.Sprintf("Binomial(n=%d, p=%g)", tc.n, tc.p)
		binomialPMFChiSquare(t, label, tc.n, tc.p, func() int64 { return Binomial(src, tc.n, tc.p) })
	}
}

// TestWalkDisplacementExactLaw pins the swap-run collapse's
// displacement draw at chunk lengths past popcountMax, up to the
// engine's kernelPass cap of 2¹⁶ steps: with stay = 0 the displacement
// is 2R − J, R ~ Binomial(J, 1/2), so R = (d + J)/2 must be an integer
// with the exact binomial law.
func TestWalkDisplacementExactLaw(t *testing.T) {
	t.Parallel()
	for i, steps := range []int64{1 << 12, 1 << 16} {
		src := newSource(uint64(1400 + i))
		label := fmt.Sprintf("WalkDisplacement(%d, 0)", steps)
		binomialPMFChiSquare(t, label, steps, 0.5, func() int64 {
			d := WalkDisplacement(src, steps, 0)
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
// a literally stepped lazy walk, including the stay = 0 swap-run case
// the batch engine uses and a genuinely lazy walk.
func TestWalkDisplacementLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		steps int64
		stay  float64
	}{
		{17, 0},   // swap-run collapse parameters
		{96, 0},   // popcount across a word boundary
		{24, 0.4}, // lazy walk
	}
	for i, tc := range cases {
		srcA := newSource(uint64(500 + i))
		srcB := newSource(uint64(600 + i))
		// Displacement lives in [−steps, steps]; shift into histogram
		// indices.
		histA := make([]int64, 2*tc.steps+1)
		histB := make([]int64, 2*tc.steps+1)
		for trial := 0; trial < samplerLawTrials; trial++ {
			histA[WalkDisplacement(srcA, tc.steps, tc.stay)+tc.steps]++
			var pos int64
			for j := int64(0); j < tc.steps; j++ {
				if tc.stay > 0 && srcB.Float64() < tc.stay {
					continue
				}
				if srcB.Uint64()&1 == 0 {
					pos--
				} else {
					pos++
				}
			}
			histB[pos+tc.steps]++
		}
		samplerChiSquare(t, "WalkDisplacement", histA, histB)
	}
}

// TestWalkDisplacementParity: with stay = 0 the displacement must have
// the parity of the step count — the batch engine relies on this to
// land the walker on a path node.
func TestWalkDisplacementParity(t *testing.T) {
	t.Parallel()
	src := newSource(42)
	for steps := int64(1); steps <= 65; steps++ {
		for trial := 0; trial < 50; trial++ {
			d := WalkDisplacement(src, steps, 0)
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

// TestGammaMoments sanity-checks the Marsaglia–Tsang sampler on both
// shape regimes: Gamma(shape, 1) has mean = variance = shape.
func TestGammaMoments(t *testing.T) {
	t.Parallel()
	for i, shape := range []float64{0.4, 1, 2.5, 40} {
		src := newSource(uint64(1200 + i))
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
		// CDF inversion is O(result): cap the population so a fuzz
		// case stays sub-second.
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

// FuzzBinomial fuzzes the support invariants of Binomial and of the
// swap-run displacement built on it, over every path's parameters:
// 0 ≤ k ≤ n for n up to 2⁶² and p ∈ [0, 1], and WalkDisplacement(J, 0)
// inside [−J, J] with the parity of J. Each call must also return:
// every path is O(1) expected draws or O(n·min(p, 1−p)) < O(10) terms,
// so a hang shows as the fuzzer's per-input timeout.
func FuzzBinomial(f *testing.F) {
	f.Add(uint64(1), int64(10), 0.3)
	f.Add(uint64(2), int64(popcountMax-1), 0.5)
	f.Add(uint64(3), int64(popcountMax), 0.5)
	f.Add(uint64(4), int64(1<<16), 0.5)
	f.Add(uint64(5), int64(1)<<62, 0.5)
	f.Add(uint64(6), int64(1)<<62, 1e-18)
	f.Add(uint64(7), int64(1)<<62, 1-1e-12)
	f.Add(uint64(8), int64(1000), 0.01)
	f.Add(uint64(9), int64(0), 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, n int64, p float64) {
		if n < 0 {
			n = -(n + 1)
		}
		n %= 1<<62 + 1
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return
		}
		if p < 0 || p > 1 {
			p = math.Abs(math.Mod(p, 1))
		}
		src := newSource(seed)
		if k := Binomial(src, n, p); k < 0 || k > n {
			t.Fatalf("Binomial(%d, %g) = %d outside [0, %d]", n, p, k, n)
		}
		if d := WalkDisplacement(src, n, 0); d < -n || d > n || (d+n)%2 != 0 {
			t.Fatalf("WalkDisplacement(%d, 0) = %d: outside [−J, J] or wrong parity", n, d)
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
	if d := WalkDisplacement(src, 512, 0); d < -512 || d > 512 {
		t.Fatalf("displacement %d out of range", d)
	}
	if src.uint64s != 8 || src.float64s != 0 {
		t.Errorf("512-step displacement consumed %d words and %d floats; want 8 words, 0 floats",
			src.uint64s, src.float64s)
	}
	src = &countingSource{Rand: newSource(10)}
	const steps, draws = int64(1 << 16), 10_000
	for i := 0; i < draws; i++ {
		if d := WalkDisplacement(src, steps, 0); d < -steps || d > steps {
			t.Fatalf("displacement %d out of range", d)
		}
	}
	if perDraw := float64(src.float64s) / draws; src.uint64s != 0 || perDraw > 3 {
		t.Errorf("%d-step displacements consumed %d words and %.2f floats per draw; want 0 words, ≤ 3 floats",
			steps, src.uint64s, perDraw)
	}
}

// TestBinomialInversionTopUniform pins the inversion walk's end at the
// top of the uniform range: with u = 1 − 2⁻⁵³ above the rounded total
// mass, the walk must stop in the upper tail, not walk on to k = n
// (2³⁰ terms here, and a hang at n = 2⁶²).
func TestBinomialInversionTopUniform(t *testing.T) {
	t.Parallel()
	src := &topSource{Rand: newSource(11)}
	const n, p = int64(1 << 30), 3e-9 // n·p ≈ 3.2: the inversion path
	if k := Binomial(src, n, p); k > 1000 {
		t.Fatalf("Binomial(%d, %g) at the top uniform = %d; want the walk to end in the tail", n, p, k)
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
