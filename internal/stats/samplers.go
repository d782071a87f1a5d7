package stats

import (
	"math"
	"math/bits"
)

// This file holds the exact discrete samplers behind the batch
// engine's swap-run collapse (see indexedLoop in
// internal/core/indexed.go and ARCHITECTURE.md): fair-coin and
// hypergeometric counts, gamma/Poisson variates feeding the
// negative-binomial gap collapse, and the net displacement of a k-step
// simple random walk. The displacement and the gap total cost O(1)
// expected uniforms at any chunk length — the displacement's fair
// binomial goes through BTRS once popcounting stops paying — while the
// hypergeometric draw, the budget cut where the step budget ends and
// every strip-exit bridge point (strip.go), inverts O(sd) terms from
// its mode on one uniform (BenchmarkSamplers prices each draw). They
// live in internal/stats rather than on core.RNG so their laws can be
// pinned against literal urn and coin simulations and exact pmfs
// without importing the engine, and so non-engine consumers can draw
// from any uniform source. Every sampler is exact up to float64
// rounding: the hypergeometric CDF inversion walks the true
// probability mass, and the BTRS binomial and the gamma/Poisson pair
// are rejection samplers, not approximations.

// Source is the uniform-randomness interface the samplers consume.
// *math/rand/v2.Rand satisfies it; core.RNG passes its own.
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

// popcountMax is the fair-coin count below which fairBinomial counts
// popcounts: ⌈n/64⌉ uniform words beat one BTRS draw up to about a
// thousand coins (BENCH_stats.json's fair-coins medians: popcount 41,
// 62 and 120 ns at 512, 768 and 1,024 coins, BTRS 71, 94 and 68 ns).
const popcountMax = 1024

// fairBinomial returns the number of heads among n fair coins: by
// popcount over ⌈n/64⌉ uniform words below popcountMax, by BTRS
// rejection (binomialBTRS at p = 1/2, O(1) expected uniform pairs)
// from there up.
func fairBinomial(src Source, n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n < popcountMax {
		return fairCoins(src, n)
	}
	return binomialBTRS(src, n, 0.5)
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
// are marked, hit marked items. CDF inversion on one uniform, taken
// on every call (a one-point support included), in the order mode,
// then outward one term at a time on whichever side has the larger
// next term (the upper side on a tie): exact for any fixed order of
// the support, and O(sd) expected terms at any total. pmf(mode) comes
// from lnHyperPMF without cancellation, the other terms from the pmf
// ratio. The walk ends where the next term no longer moves the rounded
// cdf, so a u above the rounded total mass stops at the tail point
// reached rather than at an end of the support. It must hold
// 0 ≤ marked ≤ total and 0 ≤ draws ≤ total.
func Hypergeometric(src Source, draws, marked, total int64) int64 {
	if draws < 0 || marked < 0 || marked > total || draws > total {
		panic("stats: Hypergeometric requires 0 ≤ draws, marked ≤ total")
	}
	u := src.Float64()
	lo, hi := max(0, draws+marked-total), min(draws, marked)
	if lo == hi {
		return lo
	}
	// mode = ⌊(draws+1)(marked+1)/(total+2)⌋, whose product overflows
	// int64 at the budget cut's sizes; the quotient is below total+1.
	ph, pl := bits.Mul64(uint64(draws+1), uint64(marked+1))
	q, _ := bits.Div64(ph, pl, uint64(total+2))
	mode := min(max(int64(q), lo), hi)
	pMode := math.Exp(lnHyperPMF(draws, marked, total, mode))
	// ratio(k) = pmf(k+1)/pmf(k).
	ratio := func(k int64) float64 {
		return float64(marked-k) * float64(draws-k) / (float64(k+1) * float64(total-marked-draws+k+1))
	}
	cdf := pMode
	if u < cdf {
		return mode
	}
	up, down := mode, mode
	pUp, pDown := pMode, pMode
	for {
		nextUp, nextDown := 0.0, 0.0
		if up < hi {
			nextUp = pUp * ratio(up)
		}
		if down > lo {
			nextDown = pDown / ratio(down-1)
		}
		// Every later term is smaller than the larger next one, so
		// the walk ends where that one no longer moves the cdf.
		if nextUp >= nextDown {
			next := cdf + nextUp
			if next == cdf {
				return up
			}
			up, pUp, cdf = up+1, nextUp, next
			if u < cdf {
				return up
			}
		} else {
			next := cdf + nextDown
			if next == cdf {
				return down
			}
			down, pDown, cdf = down-1, nextDown, next
			if u < cdf {
				return down
			}
		}
	}
}

// lnHyperPMF returns ln pmf(k) of the hypergeometric law of n draws
// from N items of which K are marked, for k in the support. The law's
// symmetries (complementing the marks or the draws, and swapping the
// drawn and marked subsets) carry it to n ≤ K ≤ N − K, where
// pmf(k) = pmf(0)·[C(K, k)/C(K, 0)]·[C(N−K, n−k)/C(N−K, n)]:
// lnHyperZero and two lnChooseRatio terms, none a difference of
// log-factorials near N.
func lnHyperPMF(n, K, N, k int64) float64 {
	if K > N-K {
		K, k = N-K, n-k
	}
	if n > N-n {
		n, k = N-n, K-k
	}
	if n > K {
		n, K = K, n
	}
	return lnHyperZero(n, K, N) + lnChooseRatio(K, 0, k) + lnChooseRatio(N-K, n, n-k)
}

// lnHyperZero returns ln pmf(0) = ln C(N−K, n) − ln C(N, n) for n draws
// from N items of which K are marked, n ≤ K ≤ N − K. It is
// ln Γ(a₁+n) − ln Γ(a₁) − [ln Γ(a₂+n) − ln Γ(a₂)] with a₁ = N−K−n+1 and
// a₂ = N−n+1; writing each difference as n·ln a + lnGammaRest(a, n)
// folds the two n·ln a terms into n·ln(a₁/a₂), taken as log1p(−K/a₂)
// while K/a₂ ≤ ½ and from the ratio itself above, where a rounded
// K/a₂ would lose the small a₁/a₂ (a₁ = 1 at a balanced bisection
// midpoint). Four lgammas of arguments near N would cancel to an
// absolute error of about N·2⁻⁴⁸ (0.004 at the budget cut's N ≈ 2⁴⁰);
// this form keeps it near n·2⁻⁵².
func lnHyperZero(n, K, N int64) float64 {
	fn := float64(n)
	a1, a2 := float64(N-K-n+1), float64(N-n+1)
	l := math.Log(a1 / a2)
	if x := float64(K) / a2; x <= 0.5 {
		l = math.Log1p(-x)
	}
	return fn*l + lnGammaRest(a1, fn) - lnGammaRest(a2, fn)
}

// lnGammaRest returns ln Γ(a+n) − ln Γ(a) − n·ln a: by Stirling's
// series for a ≥ 16, where lnGammaTail's truncation error is below
// 10⁻¹⁴, and through lgamma below that.
func lnGammaRest(a, n float64) float64 {
	if a < 16 {
		x, _ := math.Lgamma(a + n)
		y, _ := math.Lgamma(a)
		return x - y - n*math.Log(a)
	}
	return (a+n-0.5)*math.Log1p(n/a) - n + lnGammaTail(a+n) - lnGammaTail(a)
}

// lnGammaTail returns ln Γ(x) − [(x−½)·ln x − x + ½·ln 2π], the tail
// of Stirling's series, to its x⁻⁷ term.
func lnGammaTail(x float64) float64 {
	r := 1 / x
	r2 := r * r
	return r * (1.0/12 - r2*(1.0/360-r2*(1.0/1260-r2/1680)))
}

// Gamma returns a Gamma(shape, 1) variate by the Marsaglia–Tsang
// squeeze-rejection method — exact, O(1) expected draws. It requires
// shape ≥ 1: NegBinomial, its one caller, passes an integer r ≥ 1.
func Gamma(src Source, shape float64) float64 {
	if shape < 1 {
		panic("stats: Gamma requires shape ≥ 1")
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

// WalkDisplacement returns the net displacement of a `steps`-step
// simple random walk on ℤ, each step ±1 with equal probability: with R
// the rightward steps (a fair binomial, by popcount for short walks and
// BTRS above popcountMax), the displacement 2R − steps carries the
// exact k-step law — one draw replacing k per-step simulations, at
// O(1) expected cost for any k. The batch engine's swap-run collapse
// draws its walker's displacement here: a revealed swap run moves its
// walker on every landing.
func WalkDisplacement(src Source, steps int64) int64 {
	if steps <= 0 {
		return 0
	}
	return 2*fairBinomial(src, steps) - steps
}
