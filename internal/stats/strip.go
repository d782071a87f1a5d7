package stats

import "math"

// This file holds the strip samplers behind the batch engine's
// single-walker collapse: a ±1 walk confined to an open strip (a, b),
// a < 0 < b, whose first visit to a or b ends the collapse epoch. They
// are built on the exact samplers of samplers.go — the free walk's
// displacement and the hypergeometric point of a bridge (bridgePoint)
// — and on stripAvoid, the exact probability that a bridge stays
// inside the strip. Every draw is exact up to float64 rounding.

// StripExit runs a simple ±1 walk from 0 for at most h steps, stopped
// at its first visit to a or b (a < 0 < b, h ≥ 1), and returns the
// steps taken t and the position y = S_t: either t = h and a < y < b
// (no visit), or y ∈ {a, b} first reached at step t ≤ h. The joint law
// of (t, y) is that of the literal walk. One WalkDisplacement draw
// gives S_h, accepted as a visit-free path with the bridge's avoidance
// probability; otherwise the first visit is located by bisecting the
// bridge: a midpoint drawn from the free bridge (bridgePoint) is
// accepted with the probability that either half visits, and the
// search recurses into the half holding the first visit. That is
// O(log h) accepted midpoints. A path that stays far from both ends
// costs the displacement, one uniform and two exponentials.
func StripExit(src Source, h, a, b int64) (t, y int64) {
	if h < 1 || a >= 0 || b <= 0 {
		panic("stats: StripExit requires h ≥ 1 and a < 0 < b")
	}
	x := WalkDisplacement(src, h)
	if a < x && x < b {
		// Accept the visit-free path with probability 1 − hit. The
		// uniform is first compared against a cheap upper bound on hit,
		// so the image sums run only when it falls below the bound.
		bound := stripHitBound(h, x, a, b)
		if bound == 0 {
			return h, x
		}
		u := src.Float64()
		if u >= bound {
			return h, x
		}
		if _, hit := stripAvoid(h, 0, x, a, b); u >= hit {
			return h, x
		}
	}
	// The bridge from u (inside the strip, at step t) to v over n
	// steps is conditioned on visiting a or b.
	var u int64
	v, n := x, h
	for n > 1 {
		m := n / 2
		for {
			z := u + bridgePoint(src, n, m, v-u)
			_, left := stripAvoid(m, u, z, a, b)
			r := src.Float64()
			if r < left {
				n, v = m, z
				break
			}
			if _, right := stripAvoid(n-m, z, v, a, b); r < left+(1-left)*right {
				t, u, n = t+m, z, n-m
				break
			}
		}
	}
	return t + 1, v
}

// StripExitAt returns the position after `at` steps (0 ≤ at < t) of
// a walk whose StripExit was (t, y): given the exit, the path is
// uniform among those it allows, so this is stripBridge over the
// whole horizon when the walk stayed inside (y strictly between a and
// b), and over the t−1 steps before the visit otherwise, which end
// next to the end visited.
func StripExitAt(src Source, t, y, at, a, b int64) int64 {
	switch y {
	case a:
		return stripBridge(src, t-1, a+1, at, a, b)
	case b:
		return stripBridge(src, t-1, b-1, at, a, b)
	}
	return stripBridge(src, t, y, at, a, b)
}

// stripBridge returns the position after `at` steps of a uniformly
// random `steps`-step ±1 path from 0 to end whose positions after steps
// 1…steps all lie strictly inside (a, b) (a < 0 < b, a < end < b, end
// reachable). Rejection from the free bridge: a bridgePoint proposal,
// accepted with the two halves' avoidance probabilities. The expected
// number of proposals is the inverse of the whole bridge's avoidance
// probability: O(1) averaged over the visit-free exits of StripExit,
// O(√t) over those that visit an end at step t.
func stripBridge(src Source, steps, end, at, a, b int64) int64 {
	if at <= 0 {
		return 0
	}
	if at >= steps {
		return end
	}
	for {
		z := bridgePoint(src, steps, at, end)
		left, _ := stripAvoid(at, 0, z, a, b)
		if left == 0 {
			continue
		}
		right, _ := stripAvoid(steps-at, z, end, a, b)
		if src.Float64() < left*right {
			return z
		}
	}
}

// bridgePoint returns the position after m steps of a uniformly
// random n-step ±1 path from 0 to x (0 ≤ m ≤ n, x ≡ n mod 2,
// |x| ≤ n): 2j − m, where the up-steps j among the first m are
// hypergeometric — m draws from n steps of which (n+x)/2 go up —
// inverted from the mode in O(sd) = O(√n) terms.
func bridgePoint(src Source, n, m, x int64) int64 {
	return 2*Hypergeometric(src, m, (n+x)/2, n) - m
}

// stripHitBound returns an upper bound on the visit probability of an
// n-step bridge from 0 to x for the strip (a, b), a < x < b: the union
// of the two one-sided visits, each the reflection ratio
// r(y) = C(n, (n+y)/2)/C(n, (n+x)/2) at y = 2b − x or 2a − x, both
// farther from 0 than x. Each step from |x| out to |y| multiplies the
// binomial by (n−z)/(n+z+2) ≤ e^(−2z/n) at position z, so
// r(y) ≤ exp(−(|y|−|x|)(|y|+|x|−2)/(2n)), and r(y) = 0 beyond reach.
// Two exponentials against the image sum's Stirling-difference ratios:
// StripExit with both ends far draws about five times faster with it,
// and sgl-merge loses 18% of its throughput without it, EXPERIMENTS.md.
func stripHitBound(n, x, a, b int64) float64 {
	ax := max(x, -x)
	bound := func(y int64) float64 {
		y = max(y, -y)
		if y > n {
			return 0
		}
		return math.Exp(-float64(y-ax) * float64(y+ax-2) / float64(2*n))
	}
	return bound(2*b-x) + bound(2*a-x)
}

// stripAvoid returns the probability that a uniformly random n-step ±1
// path from u to v (a < u < b, v − u ≡ n mod 2, |v − u| ≤ n) keeps
// every position after steps 1…n strictly inside (a, b), and its
// complement, each computed without cancellation where it is small:
// the visit probability hit by the method of images while n ≤ W²
// (W = b − a), the avoidance by the strip's eigenfunction expansion
// above that. Both sums converge geometrically there, so only their
// first terms exceed float64 resolution.
func stripAvoid(n, u, v, a, b int64) (avoid, hit float64) {
	if v <= a || v >= b || b-a == 2 && n > 0 {
		return 0, 1
	}
	w := b - a
	if n > w*w {
		avoid = stripSpectral(n, u-a, v-a, w)
		return avoid, 1 - avoid
	}
	hit = stripImages(n, v-u, a-u, b-u)
	return 1 - hit, hit
}

// stripImages returns the visit probability of an n-step bridge from 0
// to x for the strip (a, b), a < 0 < b: with W = b − a and
// r(y) = C(n, (n+y)/2)/C(n, (n+x)/2) the image ratio,
//
//	hit = Σ_{k≥0} [r(2b−x+2kW) + r(2a−x−2kW)] − Σ_{k≥1} [r(x+2kW) + r(x−2kW)],
//
// the reflection principle applied to both ends. Every image lies
// further from 0 than x, so each ratio is at most 1, and the terms of
// shell k fall like exp(−2k²W²/n).
func stripImages(n, x, a, b int64) float64 {
	w := b - a
	kx := (n + x) / 2
	ratio := func(y int64) float64 {
		if y > n || y < -n {
			return 0
		}
		return math.Exp(lnChooseRatio(n, kx, (n+y)/2))
	}
	var hit float64
	for k := int64(0); ; k++ {
		s := ratio(2*b-x+2*k*w) + ratio(2*a-x-2*k*w)
		if k > 0 {
			s -= ratio(x+2*k*w) + ratio(x-2*k*w)
		}
		next := hit + s
		if next == hit || 2*(k+1)*w-max(x, -x) > n {
			return max(next, 0)
		}
		hit = next
	}
}

// stripSpectral returns the avoidance probability of an n-step bridge
// from u to v inside the strip of positions 1…w−1 (0 and w the ends):
// the path count (2/w)·Σ_{j=1}^{w−1} sin(jπu/w)·sin(jπv/w)·(2cos(jπ/w))ⁿ
// over the free count C(n, (n+v−u)/2). The terms j and w−j are equal
// when v − u ≡ n (mod 2) and j = w/2 vanishes, so the sum runs over
// j < w/2, doubled; term j falls like exp(−π²(j²−1)n/(2w²)) against
// the first.
func stripSpectral(n, u, v, w int64) float64 {
	lnFree := lnHalfBinom(n, (n+v-u)/2)
	fw := float64(w)
	var sum float64
	for j := int64(1); 2*j < w; j++ {
		theta := float64(j) * math.Pi / fw
		s := math.Sin(theta / 2)
		lnCos := math.Log1p(-2 * s * s) // ln cos θ
		mag := math.Exp(float64(n)*lnCos - lnFree)
		if sum+mag == sum {
			break // every later term is smaller still
		}
		sum += math.Sin(float64(u)*theta) * math.Sin(float64(v)*theta) * mag
	}
	return min(max(4/fw*sum, 0), 1)
}

// lnChooseRatio returns ln C(n, l) − ln C(n, k) for 0 ≤ k, l ≤ n as a
// Stirling-series difference: for j = l − k ≥ 0 it is
// j·ln((n−l+1)/(k+1)) + lnGammaRest(n−l+1, j) − lnGammaRest(k+1, j),
// with no large log-factorials to cancel.
func lnChooseRatio(n, k, l int64) float64 {
	if l < k {
		return -lnChooseRatio(n, l, k)
	}
	j := float64(l - k)
	lo, hi := float64(n-l+1), float64(k+1)
	return j*math.Log(lo/hi) + lnGammaRest(lo, j) - lnGammaRest(hi, j)
}

// lnHalfBinom returns ln(C(n, k)·2⁻ⁿ), the log of the fair binomial
// pmf, as the central term plus lnChooseRatio: by Legendre's
// duplication formula C(2m, m)·4⁻ᵐ = Γ(m+½)/(√π·Γ(m+1)), and
// C(2m+1, m)·2⁻²ᵐ⁻¹ is that times (2m+1)/(2m+2).
func lnHalfBinom(n, k int64) float64 {
	m := n / 2
	fm := float64(m) + 0.5
	c := -0.5*math.Log(math.Pi) - 0.5*math.Log(fm) - lnGammaRest(fm, 0.5)
	if n%2 == 1 {
		c += math.Log(float64(2*m+1) / float64(2*m+2))
	}
	return c + lnChooseRatio(n, m, k)
}
