package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// The draws the batch engine's pure path rests on — the geometric
// swap-run length and scheduler gap, the cell draw with an excluded
// sub-bucket, the hypergeometric budget cut — are pinned by two-sample
// chi-square tests at α = 0.001 against literal coin, urn and
// categorical simulations.

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

// TestGeometricExpLawMatch pins GeometricExp — the indexed loop's
// swap-run length and scheduler-gap draw — against literal Bernoulli
// trials: the failures before the first success, with the last
// histogram bin pooling the tail. invLambda = +Inf is the run of a
// cell holding every enabled pair, which never ends: the clamp.
func TestGeometricExpLawMatch(t *testing.T) {
	t.Parallel()
	const bins = 12
	for i, p := range []float64{0.05, 0.3, 2.0 / 3, 0.9} {
		rngA, rngB := NewRNG(uint64(707+i)), NewRNG(uint64(808+i))
		invLambda := -1 / math.Log1p(-p)
		histA := make([]int64, bins)
		histB := make([]int64, bins)
		for trial := 0; trial < lawTrials; trial++ {
			histA[min(rngA.GeometricExp(invLambda), bins-1)]++
			var brute int64
			for rngB.Float64() >= p {
				brute++
			}
			histB[min(brute, bins-1)]++
		}
		chiSquareCompare(t, "GeometricExp", histA, histB)
	}
	rng := NewRNG(1)
	for i := 0; i < 100; i++ {
		if got := rng.GeometricExp(math.Inf(1)); got != geometricClamp {
			t.Fatalf("GeometricExp(+Inf) = %d, want the clamp %d", got, geometricClamp)
		}
	}
}

// TestSampleCellExcluding pins the batch engine's cell draw: with a
// sub-bucket excluded (the landing right after a completed swap run)
// it never returns that sub-bucket, and its law is the categorical law
// of the remaining weights; with none excluded it is sample's own walk.
// The configuration is the walker protocol's mid-growth census, several
// enabled sub-buckets of unequal weight.
func TestSampleCellExcluding(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	const n = 12
	cfg := NewConfig(p, n)
	for u := 0; u < 5; u++ {
		cfg.SetNode(u, 1) // q2
	}
	cfg.SetNode(2, 2) // w
	for u := 0; u+1 < 5; u++ {
		cfg.SetEdge(u, u+1, true)
	}
	bi := newBatchIndex(cfg)
	var cells []int32
	for cell := range bi.w {
		if bi.w[cell] > 0 {
			cells = append(cells, int32(cell))
		}
	}
	if len(cells) < 3 {
		t.Fatalf("want at least three enabled sub-buckets, got %v", cells)
	}
	for si, skip := range append([]int32{-1}, cells...) {
		rngA, rngB := NewRNG(uint64(909+si)), NewRNG(uint64(1010+si))
		var rest []int64
		var total int64
		for _, cell := range cells {
			w := bi.w[cell]
			if cell == skip {
				w = 0
			}
			rest = append(rest, w)
			total += w
		}
		histA := make([]int64, len(cells))
		histB := make([]int64, len(cells))
		for trial := 0; trial < lawTrials; trial++ {
			got := bi.sampleCell(rngA, skip)
			if got == skip {
				t.Fatalf("sampleCell excluding %d returned it", skip)
			}
			idx := slices.Index(cells, got)
			if idx < 0 {
				t.Fatalf("sampleCell returned sub-bucket %d of zero weight", got)
			}
			histA[idx]++
			r := rngB.Int64N(total)
			for i, w := range rest {
				if r < w {
					histB[i]++
					break
				}
				r -= w
			}
		}
		chiSquareCompare(t, "sampleCell", histA, histB)
	}
}
