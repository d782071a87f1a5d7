package stats

import (
	"math"
	"math/bits"
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

// TestBinomialLawMatch pins every Binomial code path — the fair-coin
// popcount counter, the CDF-inversion walk, the complement branch —
// against literally flipped coins.
func TestBinomialLawMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.3},  // inversion walk
		{10, 0.7},  // complement branch
		{100, 0.5}, // popcount, full word + remainder
		{64, 0.5},  // popcount, exactly one word
		{3, 0.5},   // popcount, sub-word only
		{20, 0.05}, // sparse successes
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
		samplerChiSquare(t, "Binomial", histA, histB)
	}
}

// TestBinomialSplitMean checks the large-n split path (starting mass
// below float64 range) by a moment bound: a chi-square against 10⁶
// literal coin flips per trial would dominate the suite's runtime.
func TestBinomialSplitMean(t *testing.T) {
	t.Parallel()
	src := newSource(7)
	const n, p, trials = int64(1_000_000), 1e-3, 2000
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		k := float64(Binomial(src, n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / trials
	wantMean := float64(n) * p
	wantSD := math.Sqrt(float64(n) * p * (1 - p))
	if math.Abs(mean-wantMean) > 6*wantSD/math.Sqrt(trials) {
		t.Errorf("split-path mean %.2f, want %.2f ± %.2f", mean, wantMean, 6*wantSD/math.Sqrt(trials))
	}
	variance := sumSq/trials - mean*mean
	if math.Abs(variance-wantSD*wantSD) > 0.2*wantSD*wantSD {
		t.Errorf("split-path variance %.2f, want %.2f", variance, wantSD*wantSD)
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

// TestWalkDisplacementStreamEconomy documents the popcount fast path:
// a 512-step displacement must consume exactly ⌈512/64⌉ = 8 uniform
// words, which is what makes collapsing long swap runs essentially
// free. A counting source wrapper verifies it.
func TestWalkDisplacementStreamEconomy(t *testing.T) {
	t.Parallel()
	src := &countingSource{Rand: newSource(9)}
	if d := WalkDisplacement(src, 512, 0); d < -512 || d > 512 {
		t.Fatalf("displacement %d out of range", d)
	}
	if src.uint64s != 8 || src.float64s != 0 {
		t.Errorf("512-step displacement consumed %d words and %d floats; want 8 words, 0 floats",
			src.uint64s, src.float64s)
	}
	_ = bits.OnesCount64 // the fast path under test
}

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
