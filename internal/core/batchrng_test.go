package core

import (
	"testing"

	"repro/internal/stats"
)

// The samplers behind the batch engine's plans carry two kinds of
// obligation: hard invariants (counts sum to the number of draws and
// respect zero weights) and the law itself (the conditional-binomial
// chain must reproduce the joint distribution of brute-force
// sequential draws, the scalar samplers their literal experiments).
// The invariants are property-tested and fuzzed; the laws are pinned
// by two-sample chi-square tests at α = 0.001 against literal urn
// simulations.

const lawTrials = 4000

// chiSquareCompare runs a two-sample homogeneity test on two count
// histograms and fails if the distributions differ at α = 0.001.
func chiSquareCompare(t *testing.T, label string, a, b []int64) {
	t.Helper()
	stat, df := stats.ChiSquareTwoSample(a, b)
	if df == 0 {
		t.Fatalf("%s: chi-square test degenerate (df = 0): histograms %v vs %v", label, a, b)
	}
	if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
		t.Errorf("%s: chi-square stat %.2f > critical %.2f (df %d)\n sampler: %v\n brute:   %v",
			label, stat, crit, df, a, b)
	}
}

func TestMultinomialBucketsProperties(t *testing.T) {
	t.Parallel()
	rng := NewRNG(11)
	weightSets := [][]int64{
		{1},
		{3, 5, 2},
		{0, 7, 0, 1},
		{1, 0, 0, 0, 1},
		{1000000, 1},
		{0, 0, 5},
	}
	var out []int64
	for _, weights := range weightSets {
		for _, k := range []int64{0, 1, 7, 64, 513} {
			out = rng.MultinomialBuckets(k, weights, out)
			if len(out) != len(weights) {
				t.Fatalf("weights %v, k=%d: got %d counts", weights, k, len(out))
			}
			var sum int64
			for i, c := range out {
				if c < 0 {
					t.Fatalf("weights %v, k=%d: negative count %d in bucket %d", weights, k, c, i)
				}
				if weights[i] == 0 && c != 0 {
					t.Fatalf("weights %v, k=%d: zero-weight bucket %d received %d draws", weights, k, i, c)
				}
				sum += c
			}
			if sum != k {
				t.Fatalf("weights %v, k=%d: counts sum to %d", weights, k, sum)
			}
		}
	}
	// k = 0 with all-zero weights is legal (an empty plan).
	out = rng.MultinomialBuckets(0, []int64{0, 0}, out)
	for _, c := range out {
		if c != 0 {
			t.Fatalf("k=0 over zero weights produced count %d", c)
		}
	}
}

// TestBinomialLawMatch pins the scalar binomial sampler against the
// literal coin-flipping experiment it replaces.
func TestBinomialLawMatch(t *testing.T) {
	t.Parallel()
	const n, p = 10, 0.3
	rngA, rngB := NewRNG(101), NewRNG(202)
	histA := make([]int64, n+1)
	histB := make([]int64, n+1)
	for trial := 0; trial < lawTrials; trial++ {
		histA[rngA.Binomial(n, p)]++
		var brute int64
		for i := 0; i < n; i++ {
			if rngB.Float64() < p {
				brute++
			}
		}
		histB[brute]++
	}
	chiSquareCompare(t, "Binomial(10, 0.3)", histA, histB)
}

// TestHypergeometricLawMatch pins the scalar hypergeometric sampler
// against a literal urn: 6 draws without replacement from 14 items of
// which 5 are marked.
func TestHypergeometricLawMatch(t *testing.T) {
	t.Parallel()
	const draws, marked, total = 6, 5, 14
	rngA, rngB := NewRNG(303), NewRNG(404)
	histA := make([]int64, draws+1)
	histB := make([]int64, draws+1)
	urn := make([]int, total)
	for trial := 0; trial < lawTrials; trial++ {
		histA[rngA.Hypergeometric(draws, marked, total)]++
		for i := range urn {
			urn[i] = 0
			if i < marked {
				urn[i] = 1
			}
		}
		var brute int64
		for i := 0; i < draws; i++ {
			j := i + rngB.IntN(total-i)
			urn[i], urn[j] = urn[j], urn[i]
			brute += int64(urn[i])
		}
		histB[brute]++
	}
	chiSquareCompare(t, "Hypergeometric(6, 5, 14)", histA, histB)
}

// TestMultinomialBucketsLawMatch pins the conditional-binomial chain
// against brute-force sequential categorical draws: per bucket, the
// marginal count distribution over many trials must match.
func TestMultinomialBucketsLawMatch(t *testing.T) {
	t.Parallel()
	weights := []int64{3, 5, 2}
	const k = 8
	var total int64
	for _, w := range weights {
		total += w
	}
	rngA, rngB := NewRNG(505), NewRNG(606)
	histA := make([][]int64, len(weights))
	histB := make([][]int64, len(weights))
	for i := range histA {
		histA[i] = make([]int64, k+1)
		histB[i] = make([]int64, k+1)
	}
	var out, brute []int64
	for trial := 0; trial < lawTrials; trial++ {
		out = rngA.MultinomialBuckets(k, weights, out)
		for i, c := range out {
			histA[i][c]++
		}
		brute = brute[:0]
		brute = append(brute, make([]int64, len(weights))...)
		for d := 0; d < k; d++ {
			v := rngB.Int64N(total)
			for i, w := range weights {
				if v < w {
					brute[i]++
					break
				}
				v -= w
			}
		}
		for i, c := range brute {
			histB[i][c]++
		}
	}
	for i := range weights {
		chiSquareCompare(t, "MultinomialBuckets bucket "+string(rune('0'+i)), histA[i], histB[i])
	}
}

// FuzzBucketSamplers fuzzes the hard invariants of the multinomial
// sampler over arbitrary weight vectors, draw counts and seeds: counts
// are non-negative, sum exactly to the number of draws, and respect
// zero weights.
func FuzzBucketSamplers(f *testing.F) {
	f.Add(uint64(1), uint16(8), []byte{3, 5, 2})
	f.Add(uint64(42), uint16(0), []byte{0, 0})
	f.Add(uint64(7), uint16(500), []byte{255, 0, 1, 17})
	f.Add(uint64(99), uint16(1), []byte{1})
	f.Fuzz(func(t *testing.T, seed uint64, k uint16, raw []byte) {
		if len(raw) == 0 || len(raw) > 32 {
			t.Skip()
		}
		weights := make([]int64, len(raw))
		var total int64
		for i, b := range raw {
			weights[i] = int64(b)
			total += int64(b)
		}
		draws := int64(k)
		if total == 0 && draws > 0 {
			t.Skip() // no bucket to draw into; only the empty plan is legal
		}
		out := NewRNG(seed).MultinomialBuckets(draws, weights, nil)
		var sum int64
		for i, c := range out {
			if c < 0 {
				t.Fatalf("negative count %d", c)
			}
			if weights[i] == 0 && c != 0 {
				t.Fatalf("zero-weight bucket %d got %d", i, c)
			}
			sum += c
		}
		if sum != draws {
			t.Fatalf("counts sum %d, want %d", sum, draws)
		}
	})
}
