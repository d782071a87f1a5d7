package stats

import (
	"math"
	"math/bits"
)

// This file holds the exact discrete samplers behind the batch
// engine's analytic phase collapse (see indexedLoop in internal/core/indexed.go and
// ARCHITECTURE.md): binomial and hypergeometric counts, gamma/Poisson
// variates feeding the negative-binomial gap collapse, and the net
// displacement of a k-step lazy random walk. They live in
// internal/stats rather than on core.RNG so their laws can be pinned
// against literal urn and coin simulations without importing the
// engine, and so non-engine consumers (future analysis tooling) can
// draw from any uniform source. Every sampler is exact up to float64
// rounding: CDF inversions walk the true probability mass, and the
// gamma/Poisson pair are rejection samplers, not approximations.

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

// Binomial returns the number of successes in n independent
// Bernoulli(p) trials. Fair coins (p = 1/2) are counted exactly by
// popcount over ⌈n/64⌉ uniform words; other probabilities invert the
// CDF on a single uniform draw, walking O(n·min(p, 1−p)) expected
// terms, with very large n·p split into independent halves so the
// starting mass (1−p)ⁿ stays representable.
func Binomial(src Source, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p == 0.5 {
		var k int64
		for ; n >= 64; n -= 64 {
			k += int64(bits.OnesCount64(src.Uint64()))
		}
		if n > 0 {
			k += int64(bits.OnesCount64(src.Uint64() >> (64 - uint(n))))
		}
		return k
	}
	if p > 0.5 {
		return n - Binomial(src, n, 1-p)
	}
	if float64(n)*math.Log1p(-p) < -700 {
		half := n / 2
		return Binomial(src, half, p) + Binomial(src, n-half, p)
	}
	u := src.Float64()
	q := 1 - p
	pmf := math.Pow(q, float64(n))
	cdf := pmf
	ratio := p / q
	var k int64
	for u > cdf && k < n {
		k++
		pmf *= ratio * float64(n-k+1) / float64(k)
		cdf += pmf
	}
	return k
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
// moving steps (binomial) and R the rightward moves among them (fair
// binomial, counted by popcount), the displacement 2R − M carries the
// exact k-step law — one draw replacing k per-step simulations. The
// batch engine uses stay = 0: a revealed swap run moves its walker on
// every landing.
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
