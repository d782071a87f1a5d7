package stats

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// TestStripAvoidExactDP pins stripAvoid against exact path counts: for
// every strip (a, b) with −65 ≤ a < 0 < b ≤ 65 — ends up to one step
// beyond reach — an integer dynamic program counts the n-step paths
// from 0 that stay strictly inside, for every n ≤ 64 and every
// endpoint x. Both the avoidance probability count/C(n, (n+x)/2) and
// its complement must match to 1e-12 relative, and be exactly 0 where
// the exact value is, and stripHitBound must not fall below the visit
// probability. Strips with b < −a are the mirror images of those
// checked (x ↦ −x).
func TestStripAvoidExactDP(t *testing.T) {
	t.Parallel()
	const maxN = 64
	var choose [maxN + 1][maxN + 1]int64
	for n := 0; n <= maxN; n++ {
		choose[n][0] = 1
		for k := 1; k <= n; k++ {
			choose[n][k] = choose[n-1][k-1]
			if k < n {
				choose[n][k] += choose[n-1][k]
			}
		}
	}
	check := func(label string, got float64, num, den int64) {
		t.Helper()
		if num == 0 {
			if got != 0 {
				t.Fatalf("%s = %g; want exactly 0", label, got)
			}
			return
		}
		want := float64(num) / float64(den)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("%s = %.17g; want %.17g (relative error %.3g)", label, got, want, math.Abs(got-want)/want)
		}
	}
	for a := int64(-maxN - 1); a < 0; a++ {
		for b := -a; b <= maxN+1; b++ {
			// count[i] holds the paths ending at position a+i.
			count := make([]int64, b-a+1)
			next := make([]int64, len(count))
			count[-a] = 1
			for n := int64(1); n <= maxN; n++ {
				for i := range next {
					next[i] = 0
				}
				for i := int64(1); i < b-a; i++ {
					if i > 1 {
						next[i] += count[i-1]
					}
					if i < b-a-1 {
						next[i] += count[i+1]
					}
				}
				count, next = next, count
				for x := -n; x <= n; x += 2 {
					if x <= a || x >= b {
						continue
					}
					free := choose[n][(n+x)/2]
					avoid, hit := stripAvoid(n, 0, x, a, b)
					label := fmt.Sprintf("n=%d x=%d strip (%d, %d)", n, x, a, b)
					check(label+" avoid", avoid, count[x-a], free)
					check(label+" hit", hit, free-count[x-a], free)
					if bound, exact := stripHitBound(n, x, a, b), float64(free-count[x-a])/float64(free); bound < exact*(1-1e-12) {
						t.Fatalf("%s: stripHitBound = %.17g below the visit probability %.17g", label, bound, exact)
					}
				}
			}
		}
	}
}

// literalStripExit steps a ±1 walk from 0 one fair bit at a time until
// it reaches a or b or has taken h steps.
func literalStripExit(src Source, h, a, b int64) (t, y int64) {
	var word uint64
	for t < h {
		if t%64 == 0 {
			word = src.Uint64()
		}
		y += int64(word&1)*2 - 1
		word >>= 1
		t++
		if y == a || y == b {
			return t, y
		}
	}
	return t, y
}

// stripCell bins an exit (t, y) of the strip (a, b) within horizon h:
// a visit to a or b by the log₂ of its step, a walk that stayed inside
// for all h steps by its final position in eight bands.
func stripCell(t, y, h, a, b int64) int {
	const bands = 8
	switch y {
	case a:
		return bits.Len64(uint64(t))
	case b:
		return 64 + bits.Len64(uint64(t))
	}
	if t != h || y <= a || y >= b {
		panic(fmt.Sprintf("exit (%d, %d) is neither a visit nor a full horizon", t, y))
	}
	return 128 + int((y-a)*bands/(b-a))
}

// TestStripExitLaw pins StripExit's joint law of (t, S_t) against a
// literal ±1 walk stopped at the strip's ends, by a two-sample
// chi-square at α = 0.001 on stripCell's bins, over the shapes the
// collapse meets: both ends far, one end at distance 1, both ends
// near, a single step, and the kernelPass horizon 2¹⁶ with one end at
// distance 3. Seeds are fixed: a failure is a law change, not noise.
func TestStripExitLaw(t *testing.T) {
	t.Parallel()
	for i, tc := range []struct {
		h, a, b int64
	}{
		{1000, -50, 60},
		{300, -1, 40},
		{200, -2, 3},
		{1, -1, 3},
		{1 << 16, -3, 2000},
	} {
		samp, lit := make([]int64, 144), make([]int64, 144)
		srcS, srcL := newSource(uint64(900+i)), newSource(uint64(950+i))
		for trial := 0; trial < samplerLawTrials; trial++ {
			ts, ys := StripExit(srcS, tc.h, tc.a, tc.b)
			samp[stripCell(ts, ys, tc.h, tc.a, tc.b)]++
			tl, yl := literalStripExit(srcL, tc.h, tc.a, tc.b)
			lit[stripCell(tl, yl, tc.h, tc.a, tc.b)]++
		}
		label := fmt.Sprintf("StripExit(h=%d, a=%d, b=%d)", tc.h, tc.a, tc.b)
		if tc.h == 1 {
			// One step: t = 1 and y = ±1, each half the time.
			if samp[stripCell(1, -1, 1, -1, 3)]+samp[stripCell(1, 1, 1, -1, 3)] != samplerLawTrials {
				t.Fatalf("%s: a one-step exit left the two outcomes: %v", label, samp)
			}
		}
		samplerChiSquare(t, label, samp, lit)
	}
}

// TestStripBridgeLaw pins stripBridge against literal walks kept only
// if they stay strictly inside the strip. With a free endpoint, each
// kept literal walk gives a pair (end, position at step `at`); the
// sampler arm takes the end of an independent kept walk and draws the
// position from stripBridge. With the end fixed next to a — the shape
// the collapse's budget cut meets inside an epoch that reached an end
// — only the literal walks ending there are kept. Both compare by
// two-sample chi-square at α = 0.001 on the joint (end, position)
// bins.
func TestStripBridgeLaw(t *testing.T) {
	t.Parallel()
	keptWalk := func(src Source, steps, at, a, b int64) (end, mid int64, ok bool) {
		var word uint64
		for s := int64(0); s < steps; s++ {
			if s%64 == 0 {
				word = src.Uint64()
			}
			end += int64(word&1)*2 - 1
			word >>= 1
			if end <= a || end >= b {
				return 0, 0, false
			}
			if s+1 == at {
				mid = end
			}
		}
		return end, mid, true
	}
	for i, tc := range []struct {
		steps, at, a, b int64
		fixed           bool // keep only walks ending at a+1
	}{
		{60, 23, -5, 7, false},
		{40, 20, -5, 30, true},
	} {
		w := tc.b - tc.a
		samp, lit := make([]int64, w*w), make([]int64, w*w)
		srcS, srcL, srcE := newSource(uint64(700+i)), newSource(uint64(750+i)), newSource(uint64(800+i))
		for kept := 0; kept < samplerLawTrials; {
			end, mid, ok := keptWalk(srcL, tc.steps, tc.at, tc.a, tc.b)
			if !ok || tc.fixed && end != tc.a+1 {
				continue
			}
			lit[(end-tc.a)*w+mid-tc.a]++
			kept++
		}
		for kept := 0; kept < samplerLawTrials; {
			end, _, ok := keptWalk(srcE, tc.steps, tc.at, tc.a, tc.b)
			if !ok || tc.fixed && end != tc.a+1 {
				continue
			}
			mid := stripBridge(srcS, tc.steps, end, tc.at, tc.a, tc.b)
			if mid <= tc.a || mid >= tc.b {
				t.Fatalf("stripBridge returned %d outside (%d, %d)", mid, tc.a, tc.b)
			}
			samp[(end-tc.a)*w+mid-tc.a]++
			kept++
		}
		samplerChiSquare(t, fmt.Sprintf("stripBridge(steps=%d, at=%d, a=%d, b=%d, fixed end %v)",
			tc.steps, tc.at, tc.a, tc.b, tc.fixed), samp, lit)
	}
}

// TestStripExitAtLaw pins the budget cut's position draw end to end:
// a literal walk stopped at the strip records its exit (t, y) and its
// position after `at` steps; the sampler arm draws the exit from
// StripExit and the position from StripExitAt. Exits with t ≤ at have
// no such position and are binned by exit alone. The joint (exit,
// position) bins compare by two-sample chi-square at α = 0.001, both
// with an end one step away (most exits visit it) and with the ends
// far enough that most walks stay inside.
func TestStripExitAtLaw(t *testing.T) {
	t.Parallel()
	for i, tc := range []struct {
		h, at, a, b int64
	}{
		{400, 37, -1, 12},
		{200, 90, -9, 11},
	} {
		w := tc.b - tc.a
		cell := func(tt, y, mid int64) int {
			exit := stripCell(tt, y, tc.h, tc.a, tc.b)
			if tt <= tc.at {
				return exit * int(w+1)
			}
			return exit*int(w+1) + 1 + int(mid-tc.a)
		}
		samp, lit := make([]int64, 144*(w+1)), make([]int64, 144*(w+1))
		srcS, srcL := newSource(uint64(1100+i)), newSource(uint64(1150+i))
		for trial := 0; trial < samplerLawTrials; trial++ {
			ts, ys := StripExit(srcS, tc.h, tc.a, tc.b)
			var ms int64
			if ts > tc.at {
				ms = StripExitAt(srcS, ts, ys, tc.at, tc.a, tc.b)
				if ms <= tc.a || ms >= tc.b {
					t.Fatalf("StripExitAt returned %d outside (%d, %d)", ms, tc.a, tc.b)
				}
			}
			samp[cell(ts, ys, ms)]++

			var tl, yl, ml int64
			var word uint64
			for tl < tc.h {
				if tl%64 == 0 {
					word = srcL.Uint64()
				}
				yl += int64(word&1)*2 - 1
				word >>= 1
				tl++
				if tl == tc.at {
					ml = yl
				}
				if yl == tc.a || yl == tc.b {
					break
				}
			}
			lit[cell(tl, yl, ml)]++
		}
		samplerChiSquare(t, fmt.Sprintf("StripExitAt(h=%d, at=%d, a=%d, b=%d)", tc.h, tc.at, tc.a, tc.b), samp, lit)
	}
}

// TestHyperFromModeExactPMF pins the mode-outward inversion behind
// bridgePoint against the exact hypergeometric pmf at the bisection's
// shapes: a balanced kernelPass bridge's midpoint, a skewed endpoint,
// and a split far from the middle, plus short bridges, where
// lnHalfBinom takes its lgamma branch.
func TestHyperFromModeExactPMF(t *testing.T) {
	t.Parallel()
	cases := [][3]int64{ // draws, marked, total
		{1 << 15, 1 << 15, 1 << 16},
		{1 << 15, 1<<15 + 300, 1 << 16},
		{1000, 40000, 1 << 16},
		{32, 30, 64},
		{4, 6, 9},
		{1, 1, 2},
	}
	for i, c := range cases {
		src := newSource(uint64(1200 + i))
		label := fmt.Sprintf("hyperFromMode(%d, %d, %d)", c[0], c[1], c[2])
		hyperPMFChiSquare(t, label, c[0], c[1], c[2], func() int64 { return hyperFromMode(src, c[0], c[1], c[2]) })
	}
}
