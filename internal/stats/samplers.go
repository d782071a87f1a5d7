package stats

import (
	"math"
	"math/bits"
)

// This file holds the exact discrete samplers behind the batch
// engine's swap-run collapse (see indexedLoop in
// internal/core/indexed.go and ARCHITECTURE.md): binomial and
// hypergeometric counts, gamma/Poisson variates feeding the
// negative-binomial gap collapse, and the net displacement of a k-step
// lazy random walk. The displacement and the gap total cost O(1)
// expected uniforms at any chunk length — the displacement's fair
// binomial goes through BTRS once popcounting stops paying — while the
// hypergeometric budget cut, drawn once where the step budget ends,
// walks O(result) terms (BenchmarkSamplers prices each draw). They
// live in internal/stats rather than on core.RNG so their laws can be
// pinned against literal urn and coin simulations and exact pmfs
// without importing the engine, and so non-engine consumers can draw
// from any uniform source. Every sampler is exact up to float64
// rounding: CDF inversions walk the true probability mass, and the
// BTRS binomial and the gamma/Poisson pair are rejection samplers, not
// approximations.

// Source is the uniform-randomness interface the samplers consume.
// *math/rand/v2.Rand satisfies it, as does core.RNG.
type Source interface {
	// Float64 returns a uniform float in [0, 1).
	Float64() float64
	// Uint64 returns a uniform 64-bit word.
	Uint64() uint64
	// ExpFloat64 returns an Exponential(1) variate.
	ExpFloat64() float64
	// NormFloat64 returns a standard normal variate.
	NormFloat64() float64
}

// sampleClamp bounds the open-ended samplers (negative binomial with a
// vanishing success probability) the way core's geometric clamp does:
// callers bound the result by their remaining step budget anyway.
const sampleClamp = int64(1) << 62

// popcountMax is the fair-coin count below which Binomial counts
// popcounts: ⌈n/64⌉ uniform words beat one BTRS draw up to about a
// thousand coins (BENCH_stats.json's fair-coins medians: popcount 41,
// 62 and 120 ns at 512, 768 and 1,024 coins, BTRS 71, 94 and 68 ns).
const popcountMax = 1024

// Binomial returns the number of successes in n independent
// Bernoulli(p) trials, by one of three exact methods:
//   - fair coins (p = 1/2) below popcountMax are counted by popcount
//     over ⌈n/64⌉ uniform words;
//   - n·min(p, 1−p) ≥ 10 runs Hörmann's BTRS transformed rejection
//     (binomialBTRS), O(1) expected uniform pairs at any n;
//   - smaller means invert the CDF on a single uniform, walking
//     O(n·min(p, 1−p)) expected terms from the mass (1−p)ⁿ > e⁻²⁰.
//
// p > 1/2 draws the failures instead (the complement branch), so the
// rejection and inversion paths always see p ≤ 1/2.
func Binomial(src Source, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p == 0.5 && n < popcountMax {
		return fairCoins(src, n)
	}
	if p > 0.5 {
		return n - Binomial(src, n, 1-p)
	}
	if float64(n)*p >= 10 {
		return binomialBTRS(src, n, p)
	}
	// The starting mass (1−p)ⁿ goes through log1p: pow(1−p, n) would
	// carry the rounding of 1−p to the n-th power (relative error ~10⁻⁷
	// at n = 2³⁰).
	u := src.Float64()
	pmf := math.Exp(float64(n) * math.Log1p(-p))
	cdf := pmf
	ratio := p / (1 - p)
	var k int64
	// pmf > 0 ends the walk where the upper tail underflows: a u above
	// the rounded total mass would otherwise walk on to k = n.
	for u > cdf && k < n && pmf > 0 {
		k++
		pmf *= ratio * float64(n-k+1) / float64(k)
		cdf += pmf
	}
	return k
}

// fairCoins counts the heads among n fair coins by popcount over
// ⌈n/64⌉ uniform words.
func fairCoins(src Source, n int64) int64 {
	var k int64
	for ; n >= 64; n -= 64 {
		k += int64(bits.OnesCount64(src.Uint64()))
	}
	if n > 0 {
		k += int64(bits.OnesCount64(src.Uint64() >> (64 - uint(n))))
	}
	return k
}

// binomialBTRS is Hörmann's BTRS transformed rejection ("The
// generation of binomial random variates", 1993), the binomial twin of
// Poisson's PTRS: one uniform pair per iteration, accepted inside the
// squeeze box without any logarithm, at a rate of about 0.8 once n·p
// is large. It requires n·p ≥ 10 and p ≤ 1/2. Outside the box the
// candidate k is accepted against the exact ratio pmf(k)/pmf(m), m the
// mode; the mode's log-factorials (and ln(p/q)) are computed at most
// once per call, on the first candidate that needs them. Their
// rounding error grows like n·ln n·2⁻⁵³ (about 10⁻⁶ at n = 2²⁸); the
// swap-run collapse never asks for more than kernelPass = 2¹⁶ steps.
func binomialBTRS(src Source, n int64, p float64) int64 {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	alpha := (2.83 + 5.1/b) * spq
	vr := 0.92 - 4.2/b
	m := math.Floor((fn + 1) * p)
	h, lpq := math.NaN(), 0.0 // ln m! + ln (n−m)! and ln(p/q), on first use
	for {
		u := src.Float64() - 0.5
		v := src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || k > fn {
			continue
		}
		if math.IsNaN(h) {
			lm, _ := math.Lgamma(m + 1)
			lnm, _ := math.Lgamma(fn - m + 1)
			h, lpq = lm+lnm, math.Log(p/q)
		}
		lk, _ := math.Lgamma(k + 1)
		lnk, _ := math.Lgamma(fn - k + 1)
		if math.Log(v*alpha/(a/(us*us)+b)) <= h-lk-lnk+(k-m)*lpq {
			return int64(k)
		}
	}
}

// Hypergeometric returns how many of `draws` draws without
// replacement, from a population of `total` items of which `marked`
// are marked, hit marked items. CDF inversion like Binomial, with the
// starting mass computed through lgamma; a starting mass below float64
// range splits the draw into two rounds on the depleted urn, which is
// exact by the urn decomposition. It must hold 0 ≤ marked ≤ total and
// 0 ≤ draws ≤ total.
func Hypergeometric(src Source, draws, marked, total int64) int64 {
	if draws < 0 || marked < 0 || marked > total || draws > total {
		panic("stats: Hypergeometric requires 0 ≤ draws, marked ≤ total")
	}
	if draws == 0 || marked == 0 {
		return 0
	}
	if draws == total {
		return marked
	}
	if marked == total {
		return draws
	}
	// Symmetries keep the inversion walk short: complementing the
	// marks, and swapping the roles of the drawn and marked subsets
	// (both exact identities of the distribution).
	if marked > total-marked {
		return draws - Hypergeometric(src, draws, total-marked, total)
	}
	if draws > marked {
		return Hypergeometric(src, marked, draws, total)
	}
	// ln pmf(0) = ln C(total−marked, draws) − ln C(total, draws).
	lp := LnChoose(total-marked, draws) - LnChoose(total, draws)
	if lp < -700 {
		half := draws / 2
		k1 := Hypergeometric(src, half, marked, total)
		return k1 + Hypergeometric(src, draws-half, marked-k1, total-half)
	}
	u := src.Float64()
	pmf := math.Exp(lp)
	cdf := pmf
	maxK := draws
	if marked < maxK {
		maxK = marked
	}
	var k int64
	for u > cdf && k < maxK {
		pmf *= float64(marked-k) * float64(draws-k) /
			(float64(k+1) * float64(total-marked-draws+k+1))
		k++
		cdf += pmf
	}
	return k
}

// Gamma returns a Gamma(shape, 1) variate by the Marsaglia–Tsang
// squeeze-rejection method — exact, O(1) expected draws — with the
// shape < 1 case boosted through Gamma(shape+1)·U^{1/shape}.
func Gamma(src Source, shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma requires positive shape")
	}
	if shape < 1 {
		u := 1 - src.Float64() // (0, 1]: avoids a zero boost
		return Gamma(src, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson(mean) variate: the multiplication method
// for small means, Hörmann's PTRS transformed rejection — exact, O(1)
// expected draws — above it. Means beyond int64's safely representable
// range are clamped.
func Poisson(src Source, mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		// Knuth's product-of-uniforms, O(mean).
		limit := math.Exp(-mean)
		prod := src.Float64()
		var k int64
		for prod > limit {
			prod *= src.Float64()
			k++
		}
		return k
	case mean > float64(sampleClamp):
		return sampleClamp
	}
	// PTRS (Hörmann 1993): one uniform pair per iteration, acceptance
	// rate ≥ 0.94 for mean ≥ 30.
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := src.Float64() - 0.5
		v := src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int64(k)
		}
	}
}

// NegBinomial returns the total number of failures before the r-th
// success in independent Bernoulli(p) trials — the sum of r iid
// Geometric(p) gap lengths, which is how the batch engine collapses
// the scheduler gaps of r landings into one draw. It uses the exact
// gamma–Poisson mixture NB(r, p) = Poisson(Λ), Λ ~ Gamma(r)·(1−p)/p.
// p ≥ 1 returns 0; p ≤ 0 (a success that can never happen) returns a
// huge clamp the caller bounds by its step budget.
func NegBinomial(src Source, r int64, p float64) int64 {
	if r <= 0 || p >= 1 {
		return 0
	}
	if p <= 0 {
		return sampleClamp
	}
	lambda := Gamma(src, float64(r)) * (1 - p) / p
	if lambda > float64(sampleClamp) {
		return sampleClamp
	}
	return Poisson(src, lambda)
}

// WalkDisplacement returns the net displacement of a `steps`-step lazy
// simple random walk on ℤ: each step holds with probability `stay`,
// otherwise moves ±1 with equal probability. With M the number of
// moving steps (binomial) and R the rightward moves among them (a fair
// binomial: popcount for short walks, BTRS above popcountMax), the
// displacement 2R − M carries the exact k-step law — one draw
// replacing k per-step simulations, at O(1) expected cost for any k.
// The batch engine uses stay = 0: a revealed swap run moves its walker
// on every landing.
func WalkDisplacement(src Source, steps int64, stay float64) int64 {
	if steps <= 0 {
		return 0
	}
	moves := steps
	if stay > 0 {
		moves = steps - Binomial(src, steps, stay)
	}
	return 2*Binomial(src, moves, 0.5) - moves
}

// LnChoose returns ln C(n, k) via lgamma.
func LnChoose(n, k int64) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
