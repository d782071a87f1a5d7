package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/core"
)

// SparsityPoint is one cell of a sparsity sweep: convergence-time
// statistics of one protocol under a restricted interaction topology
// of a given expected degree.
type SparsityPoint struct {
	// Protocol names the constructor measured at this cell.
	Protocol string
	// Degree is the expected degree the topology was tuned to; Topology
	// is the realized spec in flag syntax ("" for the complete control
	// row).
	Degree   float64
	Topology string
	// Mean and StdErr summarize the convergence time (the paper's
	// running time) over the measured runs — converged ones plus
	// budget-cut ones, see campaign.Point.IncludeUnconverged.
	Mean   float64
	StdErr float64
	// Trials and Converged report the sample size and how many runs
	// reached quiescence within the 32·n⁴ budget. Sparse topologies are
	// often disconnected, where the target network is unreachable and
	// leaders can walk forever, so the budget cut is part of the
	// measurement, not a failure.
	Trials    int
	Converged int
}

// SparsitySweep measures how interaction sparsity slows the paper's
// constructors: Simple-Global-Line (Protocol 1) and Cycle-Cover
// (Protocol 4) run to quiescence under restricted interaction graphs
// of increasing expected degree, and the sweep reports convergence
// time per (protocol, degree) cell. model selects the topology family:
// "gnp" tunes the G(n,p) edge probability to p = d/(n−1), "rgg" the
// geometric radius to r = √(d/(π(n−1))) (the unit-square expected-
// degree law away from the boundary). A degree d ≥ n−1 compiles to the
// complete graph — the classic scheduler, and the sweep's control row.
//
// Every trial realizes its own random graph from the trial seed, so
// the statistics average over both the protocol's schedule and the
// topology ensemble. Runs are measured under the quiescence detector
// with a fixed 32·n⁴ step budget: below the connectivity threshold
// the goal network is unreachable and some runs never quiesce (a
// trapped leader keeps walking), so budget-cut runs fold into the
// statistics at the cut (campaign.Point.IncludeUnconverged) exactly
// like the fault sweep's.
func SparsitySweep(n int, degrees []float64, model string, trials int, seed uint64, engine core.Engine) ([]SparsityPoint, error) {
	if model != core.TopoGnp && model != core.TopoRGG {
		return nil, fmt.Errorf("experiments: sparsity sweep: unknown topology model %q (known: gnp, rgg)", model)
	}
	spec := campaign.Spec{
		Trials:             trials,
		Seed:               seed,
		Engine:             engine.String(),
		Detector:           "quiescence",
		MaxSteps:           32 * int64(n) * int64(n) * int64(n) * int64(n),
		IncludeUnconverged: true,
	}
	// The grid is protocols × degrees, in that order, so aggregate i
	// maps back to (i / len(degrees), i % len(degrees)).
	for _, name := range []string{"simple-global-line", "cycle-cover"} {
		for _, d := range degrees {
			if d < 0 {
				return nil, fmt.Errorf("experiments: sparsity sweep: expected degree %g must be non-negative", d)
			}
			var topo *core.TopologySpec
			switch {
			case d >= float64(n-1): // the complete-graph control row
			case model == core.TopoGnp:
				topo = &core.TopologySpec{Kind: core.TopoGnp, Param: round4(d / float64(n-1))}
			default:
				topo = &core.TopologySpec{Kind: core.TopoRGG, Param: round4(math.Sqrt(d / (math.Pi * float64(n-1))))}
			}
			spec.Items = append(spec.Items, campaign.Item{Name: name, Sizes: []int{n}, Topology: topo})
		}
	}
	points, err := spec.Compile()
	if err != nil {
		return nil, err
	}

	out, err := campaign.Execute(context.Background(), points, campaign.Options{})
	if err != nil {
		return nil, err
	}
	result := make([]SparsityPoint, 0, len(points))
	for i, agg := range out.Aggregates {
		d := degrees[i%len(degrees)]
		if agg.Converged+agg.Failures != trials {
			return nil, fmt.Errorf("experiments: sparsity sweep %s d=%g lost runs: %+v", agg.Protocol, d, agg)
		}
		result = append(result, SparsityPoint{
			Protocol:  points[i].Proto.Name(),
			Degree:    d,
			Topology:  agg.Topology,
			Mean:      agg.Mean,
			StdErr:    agg.StdErr,
			Trials:    agg.Trials,
			Converged: agg.Converged,
		})
	}
	return result, nil
}

// round4 trims a derived topology parameter to four significant digits
// so the record labels stay readable; the expected-degree mapping is
// approximate anyway, and the sweep averages over the ensemble.
func round4(x float64) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
	if err != nil {
		return x
	}
	return r
}
