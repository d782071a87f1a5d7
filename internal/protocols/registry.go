package protocols

import (
	"fmt"
	"sort"
)

// registry maps each protocol name to its constructor, for the CLI
// tools and table generators; a lookup builds only the protocol it
// asks for. Parameterized protocols are registered at useful default
// parameters; use the typed constructors directly for other
// parameters.
var registry = map[string]func() (Constructor, error){
	"simple-global-line": fixed(SimpleGlobalLine),
	"fast-global-line":   fixed(FastGlobalLine),
	"faster-global-line": fixed(FasterGlobalLine),
	"spanning-net":       fixed(SpanningNet),
	"cycle-cover":        fixed(CycleCover),
	"global-star":        fixed(GlobalStar),
	"global-ring":        fixed(GlobalRing),
	"2rc":                fixed(TwoRC),
	"3rc":                func() (Constructor, error) { return KRC(3) },
	"4rc":                func() (Constructor, error) { return KRC(4) },
	"3-cliques":          func() (Constructor, error) { return CCliques(3) },
	"4-cliques":          func() (Constructor, error) { return CCliques(4) },
	"degree-doubling":    func() (Constructor, error) { return DegreeDoubling(3) },
}

func fixed(build func() Constructor) func() (Constructor, error) {
	return func() (Constructor, error) { return build(), nil }
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

// Lookup builds the registered constructor of that name.
func Lookup(name string) (Constructor, error) {
	build, ok := registry[name]
	if !ok {
		return Constructor{}, fmt.Errorf("protocols: unknown protocol %q (known: %v)", name, Names())
	}
	return build()
}
