package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// FaultPoint is one cell of a fault sweep: survivability statistics of
// the target protocol under a fixed number of crash faults.
type FaultPoint struct {
	// Crashes is the number of crash faults injected.
	Crashes int
	// LargestComponent is the mean size of the largest connected
	// component of the final output graph, with its standard error.
	LargestComponent float64
	LargestStdErr    float64
	// Components is the mean number of output-graph components — the
	// "how many smaller lines" count.
	Components float64
	// Trials and Converged report the sample size and how many runs
	// reached quiescence within the budget (the rest were measured at
	// the budget cut, see campaign.Point.IncludeUnconverged).
	Trials    int
	Converged int
}

// FaultSweep measures the survivability of Simple-Global-Line under
// crash faults — the qualitative experiment the fault-tolerant
// network constructor line of work (Michail, Spirakis & Theofilatos
// 2019) predicts: without a fault-tolerance transformation, killing k
// nodes mid-construction partitions the would-be spanning line into a
// collection of smaller lines.
//
// For each k in crashCounts, k crash events are injected at steps n²,
// 2n², …, kn² (while the line population is still coalescing) and the
// run executes to quiescence under the given engine, with a fixed
// 32·n⁴ step budget as the measurement cut for the rare runs a crash
// leaves perpetually walking (a w-leader trapped in a segment with no
// q1 endpoint keeps swapping along it forever without ever changing
// the output graph).
func FaultSweep(n int, crashCounts []int, trials int, seed uint64, engine core.Engine) ([]FaultPoint, error) {
	nn := int64(n)
	spec := campaign.Spec{
		Trials:             trials,
		Seed:               seed,
		Engine:             engine.String(),
		Detector:           "quiescence",
		Metric:             "largest-component",
		MaxSteps:           32 * nn * nn * nn * nn,
		IncludeUnconverged: true,
	}
	// One item per k; k = 0 compiles its empty plan to the fault-free
	// control row.
	for _, k := range crashCounts {
		plan := &scenario.FaultPlan{Seed: seed}
		for j := 1; j <= k; j++ {
			plan.Events = append(plan.Events, scenario.Fault{
				Kind: scenario.KindCrash,
				Step: int64(j) * nn * nn,
			})
		}
		spec.Items = append(spec.Items, campaign.Item{Name: "simple-global-line", Sizes: []int{n}, Faults: plan})
	}
	points, err := spec.Compile()
	if err != nil {
		return nil, err
	}

	// The aggregate's metric is the largest component; the component
	// count is read off the same final configuration in the same metric
	// call and accumulated as an integer sum, which is exact and
	// order-independent, so the sweep stays deterministic without
	// simulating every trial twice.
	compSums := make([]int64, len(points))
	for i := range points {
		compSum := &compSums[i]
		points[i].Metric = func(res core.Result, n int) float64 {
			atomic.AddInt64(compSum, int64(campaign.MetricComponents(res, n)))
			return campaign.MetricLargestComponent(res, n)
		}
	}

	out, err := campaign.Execute(context.Background(), points, campaign.Options{})
	if err != nil {
		return nil, err
	}
	result := make([]FaultPoint, 0, len(crashCounts))
	for i, k := range crashCounts {
		la := out.Aggregates[i]
		if la.Converged+la.Failures != trials {
			return nil, fmt.Errorf("experiments: fault sweep k=%d lost runs: %+v", k, la)
		}
		result = append(result, FaultPoint{
			Crashes:          k,
			LargestComponent: la.Mean,
			LargestStdErr:    la.StdErr,
			Components:       float64(atomic.LoadInt64(&compSums[i])) / float64(trials),
			Trials:           trials,
			Converged:        la.Converged,
		})
	}
	return result, nil
}
