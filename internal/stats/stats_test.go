package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev %f", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %f/%f", s.Min, s.Max)
	}
	if math.Abs(s.StdErr()-s.StdDev/math.Sqrt(8)) > 1e-12 {
		t.Fatal("stderr inconsistent")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	t.Parallel()
	if s := Summarize(nil); s.N != 0 || s.StdErr() != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if s := Summarize([]float64{3}); s.Mean != 3 || s.StdDev != 0 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestLinearFitExact(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Fatalf("fit %+v", fit)
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("R² %f", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	t.Parallel()
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestPowerFitRecoversExponent(t *testing.T) {
	t.Parallel()
	f := func(raw uint8) bool {
		alphaTrue := 0.5 + float64(raw%40)/10 // 0.5 … 4.4
		xs := []float64{8, 16, 32, 64, 128}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3.7 * math.Pow(x, alphaTrue)
		}
		alpha, r2, err := PowerFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(alpha-alphaTrue) < 1e-9 && r2 > 0.999999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	t.Parallel()
	if _, _, err := PowerFit([]float64{1, 2}, []float64{0, 3}); err == nil {
		t.Fatal("zero sample accepted")
	}
	if _, _, err := PowerFit([]float64{-1, 2}, []float64{1, 3}); err == nil {
		t.Fatal("negative sample accepted")
	}
}

func TestRatioSpread(t *testing.T) {
	t.Parallel()
	spread, err := RatioSpread([]float64{10, 21, 30}, []float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spread-1.05) > 1e-12 {
		t.Fatalf("spread %f", spread)
	}
	if _, err := RatioSpread([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := RatioSpread([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero reference accepted")
	}
	if _, err := RatioSpread([]float64{-1}, []float64{2}); err == nil {
		t.Fatal("negative ratio accepted")
	}
}
