package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/stats"
)

// RNG is the deterministic random source used throughout the simulator:
// scheduler pair choices, symmetry-breaking coins, and PREL rule coins
// all draw from it, so a run is fully reproducible from (protocol, n,
// seed).
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG
}

// NewRNG returns a PCG-backed source seeded deterministically.
func NewRNG(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: rand.New(pcg), pcg: pcg}
}

// Reseed resets the source to the exact state NewRNG(seed) would
// produce, without allocating — the workspace path's per-run
// reinitialization. A reseeded RNG emits the same stream as a fresh
// one, which is what makes workspace-reused runs bit-identical to
// fresh-allocation runs.
func (r *RNG) Reseed(seed uint64) {
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// IntN returns a uniform integer in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform int64 in [0, n) — used where pair counts
// exceed 32 bits (the sparse engine's class weights at n ≈ 10⁶).
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Coin returns true with probability 1/2.
func (r *RNG) Coin() bool { return r.src.Uint64()&1 == 1 }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit word. Together with Float64,
// ExpFloat64 and NormFloat64 this makes RNG satisfy stats.Source.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// ExpFloat64 returns an Exponential(1) variate.
func (r *RNG) ExpFloat64() float64 { return r.src.ExpFloat64() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, for p ∈ (0, 1] — the length of the
// ineffective run the indexed engines skip in one draw. It inverts the
// geometric CDF on a single uniform draw: ⌊ln U / ln(1−p)⌋ with
// U ∈ (0, 1]. Non-positive p (a success that can never happen) returns
// a huge clamp the caller bounds by its step budget.
func (r *RNG) Geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return geometricClamp
	}
	return r.GeometricLn(math.Log1p(-p))
}

const geometricClamp = int64(1) << 62

// GeometricLn is Geometric with the logarithm ln(1−p) precomputed by
// the caller, for p ∈ (0, 1): same variate, same single uniform draw.
// The indexed engines memoize the logarithm keyed by the enabled-pair
// count m — which repeats heavily between effective steps — saving one
// of the two math.Log calls per landing.
func (r *RNG) GeometricLn(ln1mp float64) int64 {
	u := 1 - r.src.Float64() // (0, 1]: avoids ln(0)
	k := math.Floor(math.Log(u) / ln1mp)
	if k < 0 {
		return 0
	}
	if k >= float64(geometricClamp) {
		return geometricClamp
	}
	return int64(k)
}

// GeometricExp returns a Geometric(p) variate from one exponential
// draw: with Λ = −ln(1−p), ⌊Exp(1)/Λ⌋ is Geometric(p) exactly
// (P(⌊E/Λ⌋ = k) = e^(−kΛ) − e^(−(k+1)Λ) = (1−p)ᵏ·p). The caller
// passes invLambda = 1/Λ, memoized like GeometricLn's logarithm, so
// the hot path is one ziggurat draw and one multiply — cheaper than
// GeometricLn's log inversion. The variate consumes a different
// primitive than GeometricLn, so the two methods produce different
// streams of the same law; only the batch engine's pure path — which
// carries no bit-identity obligation — uses this one.
func (r *RNG) GeometricExp(invLambda float64) int64 {
	k := r.src.ExpFloat64() * invLambda
	if k >= float64(geometricClamp) {
		return geometricClamp
	}
	return int64(k)
}

// Binomial returns the number of successes in n independent
// Bernoulli(p) trials — stats.Binomial on this source: exact CDF
// inversion (with popcount counting for fair coins), O(n·min(p, 1−p))
// expected, which is what the batch engine needs: its plans draw
// Binomial(k, w/W) for plan sizes k of a few hundred.
func (r *RNG) Binomial(n int64, p float64) int64 {
	return stats.Binomial(r.src, n, p)
}

// Hypergeometric returns how many of `draws` draws without
// replacement, from a population of `total` items of which `marked`
// are marked, hit marked items — stats.Hypergeometric on this source.
// It must hold 0 ≤ marked ≤ total and draws ≤ total.
func (r *RNG) Hypergeometric(draws, marked, total int64) int64 {
	return stats.Hypergeometric(r.src, draws, marked, total)
}

// NegBinomial returns the failures before the r-th success in
// Bernoulli(p) trials — the sum of r iid Geometric(p) gaps, which is
// how the batch engine charges the scheduler misses of a collapsed
// swap run in one draw. Exact gamma–Poisson mixture; see
// stats.NegBinomial.
func (r *RNG) NegBinomial(n int64, p float64) int64 {
	return stats.NegBinomial(r.src, n, p)
}

// WalkDisplacement returns the exact net displacement of a
// `steps`-step lazy random walk (hold probability `stay`) in one draw
// — the swap-run collapse kernel's single sample. See
// stats.WalkDisplacement.
func (r *RNG) WalkDisplacement(steps int64, stay float64) int64 {
	return stats.WalkDisplacement(r.src, steps, stay)
}

// NegHypergeometricRun returns the length of the opening run of
// marked items in a uniform shuffle of marked+unmarked items — the
// law of "consecutive same-class landings before the next other-class
// landing" within a bucket plan. See stats.NegHypergeometricRun.
func (r *RNG) NegHypergeometricRun(marked, unmarked int64) int64 {
	return stats.NegHypergeometricRun(r.src, marked, unmarked)
}

// MultinomialBuckets distributes k categorical draws over buckets
// proportionally to weights — the counts of a Multinomial(k, w/W)
// vector, drawn by the conditional-binomial chain
// c₁ ~ Bin(k, w₁/W), c₂ ~ Bin(k−c₁, w₂/(W−w₁)), … which is the exact
// joint law. The result is appended to out (reset to length zero
// first) so the batch engine's plans reuse one backing array. The
// total weight must be positive when k > 0.
func (r *RNG) MultinomialBuckets(k int64, weights []int64, out []int64) []int64 {
	out = out[:0]
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	if k > 0 && totalW <= 0 {
		panic("core: MultinomialBuckets requires positive total weight")
	}
	rem := k
	for _, w := range weights {
		if rem == 0 || w == 0 {
			out = append(out, 0)
			totalW -= w
			continue
		}
		c := r.Binomial(rem, float64(w)/float64(totalW))
		out = append(out, c)
		rem -= c
		totalW -= w
	}
	return out
}

// HypergeometricBuckets distributes `draws` draws without replacement
// over buckets with the given capacities — the counts of a
// multivariate hypergeometric vector, drawn by the conditional chain
// c₁ ~ Hyp(draws, cap₁, C), c₂ ~ Hyp(draws−c₁, cap₂, C−cap₁), …
// Every count is bounded by its bucket's capacity and the counts sum
// to draws exactly. The result is appended to out (reset to length
// zero first). draws must not exceed the total capacity.
func (r *RNG) HypergeometricBuckets(draws int64, capacities []int64, out []int64) []int64 {
	out = out[:0]
	var totalC int64
	for _, c := range capacities {
		totalC += c
	}
	if draws > totalC || draws < 0 {
		panic("core: HypergeometricBuckets requires 0 ≤ draws ≤ total capacity")
	}
	rem := draws
	for _, capi := range capacities {
		c := r.Hypergeometric(rem, capi, totalC)
		out = append(out, c)
		rem -= c
		totalC -= capi
	}
	return out
}

// Pair returns a uniform unordered pair {u, v}, u ≠ v, over n nodes —
// the uniform random scheduler's single draw.
func (r *RNG) Pair(n int) (u, v int) {
	u = r.src.IntN(n)
	v = r.src.IntN(n - 1)
	if v >= u {
		v++
	}
	return u, v
}
