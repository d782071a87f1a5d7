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
// one, which is what makes runs on a reused workspace bit-identical to
// runs on a new one.
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

// Uint64 returns a uniform 64-bit word.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, for p ∈ (0, 1] — GeometricExp with
// its rate computed here, for callers with no rate to memoize (the
// scenario's rate-triggered faults). Non-positive p (a success that can
// never happen) returns a huge clamp the caller bounds by its step
// budget.
func (r *RNG) Geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return geometricClamp
	}
	return r.GeometricExp(-1 / math.Log1p(-p))
}

const geometricClamp = int64(1) << 62

// GeometricExp returns a Geometric(p) variate from one exponential
// draw: with Λ = −ln(1−p), ⌊Exp(1)/Λ⌋ is Geometric(p) exactly
// (P(⌊E/Λ⌋ = k) = e^(−kΛ) − e^(−(k+1)Λ) = (1−p)ᵏ·p). The caller
// passes invLambda = 1/Λ, which the indexed loop keeps in the
// workspace's gap table (gapLaw), one slot per enabled-pair count m and
// shared by the runs of one pair universe, so the hot path is one
// ziggurat draw and one multiply. invLambda = +Inf
// (p = 0, a success that never happens) returns the clamp, like
// Geometric's p ≤ 0. The indexed loop draws its scheduler gaps and its
// swap-run lengths through this one sampler.
func (r *RNG) GeometricExp(invLambda float64) int64 {
	k := r.src.ExpFloat64() * invLambda
	if k >= float64(geometricClamp) {
		return geometricClamp
	}
	return int64(k)
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

// StripExit walks at most h landings of a ±1 walk from 0, stopped at
// its first visit to a or b (a < 0 < b), and returns the landings
// taken and the final offset — the swap-run collapse's epoch draw.
// See stats.StripExit.
func (r *RNG) StripExit(h, a, b int64) (t, y int64) {
	return stats.StripExit(r.src, h, a, b)
}

// StripExitAt returns the offset after `at` < t landings of a walk
// whose StripExit was (t, y) — where a budget cut inside the epoch
// leaves the walker. See stats.StripExitAt.
func (r *RNG) StripExitAt(t, y, at, a, b int64) int64 {
	return stats.StripExitAt(r.src, t, y, at, a, b)
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
