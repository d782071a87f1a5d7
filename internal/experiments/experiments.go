// Package experiments drives the paper-reproduction measurements
// shared by cmd/tables and cmd/figures: n-sweeps of every Table 1
// process and Table 2 protocol, scaling-exponent fits, and the
// Faster-vs-Fast Global-Line comparison from Section 7.
//
// Every sweep is a thin wrapper over a campaign (see
// repro/internal/campaign): it describes its grid as a campaign.Spec,
// whose compiled (protocol, n) points execute on a worker pool, one
// goroutine per CPU, and the campaign collector's order-independent
// reduction keeps the reported statistics identical to the old
// sequential trial loops for a fixed seed range.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/stats"
)

// Measurement is one (n, mean steps) sample with its sample size.
type Measurement struct {
	N      int
	Mean   float64
	StdErr float64
	Trials int
}

// Series is an n-sweep of measurements with a reference curve.
type Series struct {
	Name     string
	Points   []Measurement
	Expected []float64 // analytic reference per point (0 where none applies)
}

// FitExponent returns the fitted power-law exponent of the series.
func (s Series) FitExponent() (float64, error) {
	xs := make([]float64, len(s.Points))
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = float64(p.N)
		ys[i] = p.Mean
	}
	alpha, _, err := stats.PowerFit(xs, ys)
	return alpha, err
}

// RatioSpread returns max/min of measured/expected across the sweep.
func (s Series) RatioSpread() (float64, error) {
	if s.Expected == nil {
		return 0, fmt.Errorf("experiments: series %q has no reference curve", s.Name)
	}
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Mean
	}
	return stats.RatioSpread(ys, s.Expected)
}

// sweep compiles the spec and executes it as a campaign on the default
// worker pool, converting the aggregates into a Series named after the
// first point's protocol and failing if any run did not converge
// within budget (the historical contract of these measurement
// helpers).
func sweep(spec campaign.Spec) (Series, error) {
	points, err := spec.Compile()
	if err != nil {
		return Series{}, err
	}
	out, err := campaign.Execute(context.Background(), points, campaign.Options{})
	if err != nil {
		return Series{}, err
	}
	series := Series{Name: points[0].Proto.Name()}
	for _, agg := range out.Aggregates {
		if agg.Failures > 0 {
			return Series{}, fmt.Errorf("experiments: %s n=%d: %d of %d trials did not converge",
				agg.Protocol, agg.N, agg.Failures, agg.Trials)
		}
		series.Points = append(series.Points, Measurement{
			N:      agg.N,
			Mean:   agg.Mean,
			StdErr: agg.StdErr,
			Trials: agg.Trials,
		})
		series.Expected = append(series.Expected, agg.Expected)
	}
	return series, nil
}

// Measure sweeps the registry entry of that name over sizes on the
// given execution engine (core.EngineAuto picks the indexed paths under
// the uniform scheduler), measuring the entry's default metric from its
// start configuration: convergence time for the constructors, the
// detection step for the Table 1 processes.
func Measure(name string, sizes []int, trials int, seed uint64, engine core.Engine) (Series, error) {
	return sweep(campaign.Spec{Trials: trials, Seed: seed, Engine: engine.String(), Items: []campaign.Item{
		{Name: name, Sizes: sizes},
	}})
}

// Comparison holds the Section 7 Fast- vs Faster-Global-Line
// experiment: the paper reports experimental evidence that Protocol 10
// improves on Protocol 2.
type Comparison struct {
	Sizes  []int
	Fast   []float64
	Faster []float64
}

// CompareLineProtocols measures both protocols on the same sweep and
// engine. The two sweeps execute as a single campaign, so their runs
// interleave on the worker pool.
func CompareLineProtocols(sizes []int, trials int, seed uint64, engine core.Engine) (Comparison, error) {
	both, err := sweep(campaign.Spec{Trials: trials, Seed: seed, Engine: engine.String(), Items: []campaign.Item{
		{Name: "fast-global-line", Sizes: sizes},
		{Name: "faster-global-line", Sizes: sizes},
	}})
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{Sizes: sizes}
	for i, p := range both.Points {
		if i < len(sizes) {
			cmp.Fast = append(cmp.Fast, p.Mean)
		} else {
			cmp.Faster = append(cmp.Faster, p.Mean)
		}
	}
	return cmp, nil
}

// Table1Sizes and Table2Sizes give per-experiment default sweeps,
// scaled so the slowest rows stay laptop-friendly.
func Table1Sizes() []int { return []int{16, 24, 32, 48, 64, 96, 128} }

// Table2Sizes returns the default sweep per protocol name.
func Table2Sizes(name string) []int {
	switch name {
	case "simple-global-line":
		return []int{8, 12, 16, 20, 24}
	case "fast-global-line", "faster-global-line":
		return []int{8, 16, 24, 32, 48}
	case "global-ring", "2rc":
		return []int{6, 8, 10, 12}
	case "3rc", "3-cliques":
		return []int{8, 10, 12}
	case "Graph-Replication":
		return []int{8, 12, 16}
	default:
		return []int{16, 32, 64, 96}
	}
}
