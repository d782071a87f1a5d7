package campaign

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"slices"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

// Spec is the declarative, JSON-serializable form of a campaign: a
// grid of items crossed with population sizes and schedulers, measured
// over a seed range. It is what cmd/campaign reads from disk and what
// Compile turns into executable points.
//
//	{
//	  "items": [
//	    {"name": "cycle-cover", "sizes": [32, 64, 128]},
//	    {"name": "One-Way-Epidemic", "sizes": [64]}
//	  ],
//	  "trials": 20,
//	  "seed": 1,
//	  "schedulers": ["uniform"],
//	  "metric": "convergence-time"
//	}
type Spec struct {
	Items []Item `json:"items"`
	// Trials per grid point; seeds are Seed, Seed+1, …, Seed+Trials−1.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
	// Schedulers lists schedule regimes to cross the grid with; empty
	// means just the uniform random scheduler. Known names: "uniform",
	// "round-robin", "permutation", "weighted", "biased". The indexed
	// engines require "uniform"; other schedules run on the baseline
	// path.
	Schedulers []string `json:"schedulers,omitempty"`
	// Metric selects the measured quantity: "convergence-time",
	// "steps", "effective-steps", "edge-changes", "parallel-time",
	// "largest-component" or "components". Empty means each entry's
	// default: steps for the Table 1 processes, convergence-time for
	// the rest.
	Metric string `json:"metric,omitempty"`
	// MaxSteps caps each run's interactions; 0 means the engine's
	// per-n default budget.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Engine selects the core execution path: "auto" (default),
	// "baseline", "sparse", or "batch" ("fast", a retired engine's
	// name, still parses as "sparse"). Auto runs the batch engine under
	// the uniform scheduler up to 2²⁰ nodes and the baseline loop
	// otherwise.
	Engine string `json:"engine,omitempty"`
	// Detector selects the stability predicate: "target" (default; the
	// registry's per-protocol detector), "quiescence", or
	// "edge-quiescence". Items carrying a fault plan default to
	// "quiescence" instead — target detectors assume the fault-free
	// goal network is reachable, which faults generally break.
	Detector string `json:"detector,omitempty"`
	// Faults, when non-nil, injects this fault plan into every item
	// (overridable per item). See scenario.FaultPlan.
	Faults *scenario.FaultPlan `json:"faults,omitempty"`
	// Topology restricts every item's runs to a permitted interaction
	// graph, in the flag syntax of core.ParseTopologySpec ("complete",
	// "gnp@0.05", "rgg@0.1", "cm@4"); absent means the complete graph.
	// Overridable per item.
	Topology *core.TopologySpec `json:"topology,omitempty"`
	// IncludeUnconverged folds budget-exhausted runs' metric values
	// into the aggregates too (see Point.IncludeUnconverged) — the
	// survivability convention for fault sweeps measured at a fixed
	// MaxSteps budget.
	IncludeUnconverged bool `json:"include_unconverged,omitempty"`
}

// Item is one row of a spec grid: a registry entry swept over
// population sizes.
type Item struct {
	// Name is any registry name (protocols.Names, `campaign -list`): a
	// constructor, a Table 1 process or Graph-Replication.
	Name string `json:"name"`
	// Kind ("protocol", "process" or "replication") is accepted for
	// specs written before the name alone decided the row. It never
	// changes what a name resolves to; a nameless "replication" item
	// means Graph-Replication.
	Kind string `json:"kind,omitempty"`
	// Sizes is the population sweep for this item.
	Sizes []int `json:"sizes"`
	// Trials, Metric, Engine, Detector and Faults, when set, override
	// the spec-level values for this item. An explicit empty fault plan
	// ({"events": []}) opts the item out of spec-level faults — the
	// control row of a fault sweep.
	Trials   int                 `json:"trials,omitempty"`
	Metric   string              `json:"metric,omitempty"`
	Engine   string              `json:"engine,omitempty"`
	Detector string              `json:"detector,omitempty"`
	Faults   *scenario.FaultPlan `json:"faults,omitempty"`
	// Topology overrides the spec-level topology for this item. An
	// explicit "complete" opts the item out of a spec-level restriction
	// — the control row of a sparsity sweep.
	Topology *core.TopologySpec `json:"topology,omitempty"`
}

// ParseSpec decodes a JSON spec, rejecting unknown fields and anything
// but whitespace after the spec.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("campaign: parsing spec: unexpected data after the spec")
	}
	return s, nil
}

// SchedulerFactory resolves a scheduler name to a per-run factory
// (stateful schedulers must never be shared across runs). The nil
// factory means the engine's uniform default.
func SchedulerFactory(name string) (func() core.Scheduler, error) {
	switch name {
	case "", "uniform":
		return nil, nil
	case "round-robin":
		return func() core.Scheduler { return &core.RoundRobinScheduler{} }, nil
	case "permutation":
		return func() core.Scheduler { return &core.PermutationScheduler{} }, nil
	case "weighted":
		// Default heterogeneous rates: a quarter of the population runs
		// 4× hot. Callers needing other rates build the scheduler
		// directly.
		return func() core.Scheduler { return &core.WeightedScheduler{} }, nil
	case "biased":
		return func() core.Scheduler { return &core.BiasedScheduler{Cut: 4, Epsilon: 0.1} }, nil
	default:
		return nil, fmt.Errorf("campaign: unknown scheduler %q (known: uniform, round-robin, permutation, weighted, biased)", name)
	}
}

// ParseDetector resolves a detector name. ok reports whether the name
// selects an override; "target" (and "") keep the registry's
// per-protocol detector.
func ParseDetector(name string) (det core.Detector, ok bool, err error) {
	switch name {
	case "", "target":
		return core.Detector{}, false, nil
	case "quiescence":
		return core.QuiescenceDetector(), true, nil
	case "edge-quiescence":
		return core.EdgeQuiescenceDetector(), true, nil
	default:
		return core.Detector{}, false, fmt.Errorf("campaign: unknown detector %q (known: target, quiescence, edge-quiescence)", name)
	}
}

// ParseMetric resolves a metric name to its extractor.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "convergence-time":
		return MetricConvergenceTime, nil
	case "steps":
		return MetricSteps, nil
	case "effective-steps":
		return MetricEffectiveSteps, nil
	case "edge-changes":
		return MetricEdgeChanges, nil
	case "parallel-time":
		return MetricParallelTime, nil
	case "largest-component":
		return MetricLargestComponent, nil
	case "components":
		return MetricComponents, nil
	default:
		return nil, fmt.Errorf("campaign: unknown metric %q (known: convergence-time, steps, effective-steps, edge-changes, parallel-time, largest-component, components)", name)
	}
}

// Compile resolves every item against the registry (one Lookup each),
// returning the point list in deterministic grid order (items × sizes
// × schedulers).
func (s Spec) Compile() ([]Point, error) {
	if len(s.Items) == 0 {
		return nil, fmt.Errorf("campaign: spec has no items")
	}
	if s.Trials < 1 {
		return nil, fmt.Errorf("campaign: spec trials must be ≥ 1")
	}
	schedulers := s.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{"uniform"}
	}
	var points []Point
	for i, item := range s.Items {
		name, entry, err := lookupItem(item)
		if err != nil {
			return nil, fmt.Errorf("campaign: item %d (%q): %w", i, item.Name, err)
		}
		if len(item.Sizes) == 0 {
			return nil, fmt.Errorf("campaign: item %d (%q) has no sizes", i, name)
		}
		trials := cmp.Or(item.Trials, s.Trials)
		metricName := cmp.Or(item.Metric, s.Metric, entry.Metric, "convergence-time")
		metric, err := ParseMetric(metricName)
		if err != nil {
			return nil, err
		}
		engine, err := core.ParseEngine(cmp.Or(item.Engine, s.Engine))
		if err != nil {
			return nil, err
		}
		detectorName := cmp.Or(item.Detector, s.Detector)
		detOverride, haveDet, err := ParseDetector(detectorName)
		if err != nil {
			return nil, err
		}
		faults := item.Faults
		switch {
		case faults == nil:
			faults = s.Faults
		case len(faults.Events) == 0:
			// An explicit empty plan ({"events": []}) opts the item out
			// of spec-level faults — the control row of a fault sweep.
			faults = nil
		}
		if faults != nil {
			if err := faults.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: item %d (%q): %w", i, name, err)
			}
		}
		topology := cmp.Or(item.Topology, s.Topology)
		if topology != nil && (topology.Kind == "" || topology.Kind == core.TopoComplete) {
			// An explicit "complete" normalizes to the nil spec, so the
			// point — and its records — look exactly like a pre-topology
			// campaign's.
			topology = nil
		}
		for _, n := range item.Sizes {
			if n < 1 {
				return nil, fmt.Errorf("campaign: item %d (%q): population size %d must be ≥ 1", i, name, n)
			}
			var initial func(int) (*core.Config, error)
			if entry.Initial != nil {
				cfg, err := entry.Initial(n)
				if err != nil {
					return nil, fmt.Errorf("campaign: item %d (%q): %w", i, name, err)
				}
				initial = func(int) (*core.Config, error) { return cfg, nil }
			}
			var expected float64
			if entry.Expected != nil {
				expected = entry.Expected(n)
			}
			for _, schedName := range schedulers {
				factory, err := SchedulerFactory(schedName)
				if err != nil {
					return nil, err
				}
				if (engine == core.EngineSparse || engine == core.EngineBatch) && factory != nil {
					return nil, fmt.Errorf("campaign: item %d (%q): the %s engine requires the uniform scheduler, not %q", i, name, engine, schedName)
				}
				if err := engine.ValidateN(n); err != nil {
					return nil, fmt.Errorf("campaign: item %d (%q): %w", i, name, err)
				}
				if err := topology.Validate(n); err != nil {
					return nil, fmt.Errorf("campaign: item %d (%q): %w", i, name, err)
				}
				if topology != nil && factory != nil && !core.SupportsTopology(factory()) {
					return nil, fmt.Errorf("campaign: item %d (%q): the %q scheduler does not support a restricted topology", i, name, schedName)
				}
				pt := Point{
					Protocol:           name,
					N:                  n,
					Scheduler:          schedName,
					Trials:             trials,
					BaseSeed:           s.Seed,
					Proto:              entry.Proto,
					Detector:           entry.Detector,
					MaxSteps:           s.MaxSteps,
					Engine:             engine,
					Metric:             metric,
					MetricName:         metricName,
					Expected:           expected,
					Initial:            initial,
					NewScheduler:       factory,
					Faults:             faults,
					Topology:           topology,
					IncludeUnconverged: s.IncludeUnconverged,
				}
				if pt.Scheduler == "" {
					pt.Scheduler = "uniform"
				}
				switch {
				case haveDet:
					pt.Detector = detOverride
				case detectorName == "" && (faults != nil || topology != nil):
					// Target detectors assume the fault-free complete-graph
					// goal is reachable; under faults or a restricted
					// topology quiescence is the honest default stop rule.
					// An explicit "target" keeps the registry detector.
					pt.Detector = core.QuiescenceDetector()
				}
				if faults.HasCrashes() && pt.Initial != nil {
					return nil, fmt.Errorf("campaign: item %d (%q): crash faults require the default initial configuration, and this entry builds its own", i, name)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// itemKinds are the Item.Kind values specs may carry.
var itemKinds = []string{"", "protocol", "process", "replication"}

// lookupItem resolves an item to its registry name and entry.
func lookupItem(item Item) (string, protocols.Constructor, error) {
	if !slices.Contains(itemKinds, item.Kind) {
		return "", protocols.Constructor{}, fmt.Errorf("unknown item kind %q (known: protocol, process, replication)", item.Kind)
	}
	name := item.Name
	if name == "" && item.Kind == "replication" {
		name = "Graph-Replication"
	}
	c, err := protocols.Lookup(name)
	return name, c, err
}
