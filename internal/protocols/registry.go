package protocols

import (
	"fmt"
	"sort"

	"repro/internal/processes"
)

// registry maps each measured row's name to its entry, for the CLI
// tools, campaign specs and table generators; a lookup builds only the
// entry it asks for. Parameterized protocols are registered at useful
// default parameters; use the typed constructors directly for other
// parameters. The Table 1 processes and Graph-Replication are
// registered under their protocol names.
var registry = map[string]func() (Constructor, error){
	"simple-global-line":     fixed(SimpleGlobalLine),
	"fast-global-line":       fixed(FastGlobalLine),
	"faster-global-line":     fixed(FasterGlobalLine),
	"spanning-net":           fixed(SpanningNet),
	"cycle-cover":            fixed(CycleCover),
	"global-star":            fixed(GlobalStar),
	"global-ring":            fixed(GlobalRing),
	"2rc":                    fixed(TwoRC),
	"3rc":                    func() (Constructor, error) { return KRC(3) },
	"4rc":                    func() (Constructor, error) { return KRC(4) },
	"3-cliques":              func() (Constructor, error) { return CCliques(3) },
	"4-cliques":              func() (Constructor, error) { return CCliques(4) },
	"degree-doubling":        func() (Constructor, error) { return DegreeDoubling(3) },
	"Graph-Replication":      fixed(ringReplication),
	"One-Way-Epidemic":       process(processes.OneWayEpidemic),
	"One-To-One-Elimination": process(processes.OneToOneElimination),
	"Maximum-Matching":       process(processes.MaximumMatching),
	"One-To-All-Elimination": process(processes.OneToAllElimination),
	"Meet-Everybody":         process(processes.MeetEverybody),
	"Node-Cover":             process(processes.NodeCover),
	"Edge-Cover":             process(processes.EdgeCover),
}

func fixed(build func() Constructor) func() (Constructor, error) {
	return func() (Constructor, error) { return build(), nil }
}

// process adapts a Table 1 process. Its detection step is its
// convergence step (the predicate flips on the last conversion, which
// may be a node-state change rather than an edge one), so it measures
// "steps".
func process(build func() processes.Process) func() (Constructor, error) {
	return func() (Constructor, error) {
		p := build()
		return Constructor{
			Proto:    p.Proto,
			Detector: p.Detector,
			Target:   "Table 1 process",
			Initial:  p.Initial,
			Metric:   "steps",
			Expected: p.Expected,
			Theta:    p.Theta,
		}, nil
	}
}

// Names returns the sorted registry keys.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup builds the registered entry of that name.
func Lookup(name string) (Constructor, error) {
	build, ok := registry[name]
	if !ok {
		return Constructor{}, fmt.Errorf("protocols: unknown name %q (known: %v)", name, Names())
	}
	return build()
}
