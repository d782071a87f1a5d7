package main

import (
	"bytes"
	"embed"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

//go:embed specs/*.json
var specFiles embed.FS

// A workload is one set of inputs: the campaign specs a pass executes
// (concatenated into one campaign), the initial configuration every
// trial starts from (nil: the all-q0 one) and the check every run's
// output must pass beyond the generic ones.
type workload struct {
	name    string
	specs   []string
	initial func(p *core.Protocol, n int) (*core.Config, error)
	check   func(*campaign.Point, core.Result) error
}

// The workloads stress different layers:
//
//   - paper-sweep is the grid cmd/tables -quick measures (Tables 1 and
//     2, the Section 7 comparison, the sparsity table): hundreds of
//     short trials at n ≤ 64 on the fast engine, so campaign overhead
//     and per-trial index set-up weigh as much as simulation;
//   - sgl-budget is Simple-Global-Line burning fixed step budgets on
//     the batch engine: the 10⁹-step n = 2¹² row and the 2⁴⁰-step
//     n = 2¹⁶ row of BenchmarkBatchVsSparse, where the planned tier and
//     the many-walker run kernel carry the work and the campaign layer
//     is negligible. n = 2²⁰ is left out: its single ~3 s trial per pass
//     left too few passes in a run for a steady median;
//   - sgl-merge is Simple-Global-Line's last merge at n = 2¹³ and 2¹⁴:
//     two lines of n/2 nodes whose leaders meet, after which one walker
//     crosses the merged line (Θ(n²) landings, Θ(n⁴) steps) until the
//     configuration is quiescent. It is the regime the batch engine's
//     analytic swap-run collapse is built for — a single walker on the
//     sparse edge store (n > 2¹²) — which runs from the all-q0
//     configuration reach only after far more steps than a benchmark
//     can spend.
var workloads = []workload{
	{name: "paper-sweep", specs: []string{"paper-tables.json", "paper-sparsity.json"}},
	{name: "sgl-budget", specs: []string{"sgl-budget-4096.json", "sgl-budget-65536.json"}, check: checkLine},
	{name: "sgl-merge", specs: []string{"sgl-merge.json"}, initial: twoLines, check: checkLine},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setup is the work before a workload's first pass: parse and compile
// its specs and build their initial configurations, then prepare each
// point's run state once — realize the first trial's topology and build
// its configuration and engine index with a one-step run on a shared
// workspace — which is what every point's first trial pays before it
// simulates.
func (w workload) setup(seed uint64) ([]campaign.Point, error) {
	var points []campaign.Point
	for _, name := range w.specs {
		raw, err := specFiles.ReadFile("specs/" + name)
		if err != nil {
			return nil, err
		}
		spec, err := campaign.ParseSpec(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pts, err := spec.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		points = append(points, pts...)
	}
	if w.initial != nil {
		for i := range points {
			initial, err := w.initial(points[i].Proto, points[i].N)
			if err != nil {
				return nil, err
			}
			points[i].Initial = func(int) (*core.Config, error) { return initial, nil }
		}
	}
	ws := core.NewWorkspace()
	for i := range points {
		pt := &points[i]
		opts, err := runOptions(pt, passSeed(seed, 0), 0)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", pt.Protocol, pt.N, err)
		}
		opts.MaxSteps = 1
		opts.Workspace = ws
		if _, err := core.Run(pt.Proto, pt.N, opts); err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", pt.Protocol, pt.N, err)
		}
	}
	return points, nil
}

// twoLines is Simple-Global-Line's configuration just before its last
// merge: nodes 0…n/2−1 and n/2…n−1 form two lines, each with q1 at its
// outer end, q2 inside and its leader l at the inner end, and the two
// leaders are not yet connected.
func twoLines(p *core.Protocol, n int) (*core.Config, error) {
	state := make(map[string]core.State)
	for _, name := range []string{"q1", "q2", "l"} {
		s, ok := p.StateIndex(name)
		if !ok {
			return nil, fmt.Errorf("%s has no state %s", p.Name(), name)
		}
		state[name] = s
	}
	cfg := core.NewConfig(p, n)
	half := n / 2
	for u := 0; u < n; u++ {
		switch u {
		case 0, n - 1:
			cfg.SetNode(u, state["q1"])
		case half - 1, half:
			cfg.SetNode(u, state["l"])
		default:
			cfg.SetNode(u, state["q2"])
		}
		if u+1 < n && u != half-1 {
			cfg.SetEdge(u, u+1, true)
		}
	}
	return cfg, nil
}
