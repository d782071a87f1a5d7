// Package stats provides the small statistical toolkit used to compare
// measured convergence times against the paper's analytic expectations:
// summary statistics and log-log regression for fitting polynomial
// scaling exponents.
package stats

import (
	"errors"
	"math"
)

// Summary holds basic sample statistics.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes sample statistics (sample standard deviation).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	total := 0.0
	for _, x := range xs {
		total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = total / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.N == 0 {
		return 0
	}
	return s.StdDev / math.Sqrt(float64(s.N))
}

// Fit is a least-squares linear fit y = Slope·x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit performs ordinary least squares on (xs, ys).
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("stats: need at least two samples")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}, errors.New("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// Coefficient of determination.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// PowerFit fits y = c·x^α by regressing log y on log x and returns α
// (the scaling exponent) with the fit's R². All samples must be
// positive.
func PowerFit(xs, ys []float64) (alpha, r2 float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || i < len(ys) && ys[i] <= 0 {
			return 0, 0, errors.New("stats: power fit requires positive samples")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	fit, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, err
	}
	return fit.Slope, fit.R2, nil
}

// RatioSpread returns max/min of the ratios ys[i]/fs[i]; a spread near
// 1 across a sweep indicates ys tracks the reference curve fs up to a
// constant — the empirical signature of a matching Θ-class.
func RatioSpread(ys, fs []float64) (float64, error) {
	if len(ys) != len(fs) || len(ys) == 0 {
		return 0, errors.New("stats: mismatched or empty samples")
	}
	minR := math.Inf(1)
	maxR := math.Inf(-1)
	for i := range ys {
		if fs[i] == 0 {
			return 0, errors.New("stats: zero reference value")
		}
		r := ys[i] / fs[i]
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if minR <= 0 {
		return 0, errors.New("stats: non-positive ratio")
	}
	return maxR / minR, nil
}
