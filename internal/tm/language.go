// Package tm holds the graph languages that the universality results
// of Section 6 decide: each GraphLanguage pairs an isomorphism-invariant
// Go decider with the DGS(·) space class the paper's simulated Turing
// machine needs for it. internal/universal decides with the predicate
// and charges the machine's work from the declared class.
package tm

import (
	"fmt"

	"repro/internal/graph"
)

// SpaceClass is the space bound a graph language's decider needs, as a
// function of the population parameters — the DGS(·) classes of
// Section 6. Deciders declare their class so the universal
// constructors can check the inclusion DGS(f) ⊆ PREL(g) they
// instantiate.
type SpaceClass int

// Space classes, ordered by inclusion.
const (
	LogSpace SpaceClass = iota + 1
	LinearSpace
	QuadraticSpace
)

// String renders the class in the paper's notation, with l the input
// length (l = Θ(n²) for adjacency encodings).
func (s SpaceClass) String() string {
	switch s {
	case LogSpace:
		return "DGS(O(log n))"
	case LinearSpace:
		return "DGS(O(n))"
	case QuadraticSpace:
		return "DGS(O(n²))"
	default:
		return fmt.Sprintf("SpaceClass(%d)", int(s))
	}
}

// GraphLanguage is a decidable graph language together with the space
// class of its decider. Decide must be isomorphism-invariant.
type GraphLanguage struct {
	Name   string
	Space  SpaceClass
	Decide func(g *graph.Graph) bool
}

// Languages used across experiments. Connectivity and the structural
// predicates below are decidable in (deterministic) logarithmic space
// [Reingold 2005 for undirected connectivity]; Hamiltonian path fits
// linear space by enumerating permutations with an O(n log n)-bit
// counter (time-unbounded, which the model permits).

// Connected is the language of connected graphs. G(m, 1/2) graphs are
// almost surely connected, so the universal constructor's expected
// number of retries is O(1) (Remark 1).
func Connected() GraphLanguage {
	return GraphLanguage{
		Name:   "connected",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.Connected() },
	}
}

// EvenEdges is the language of graphs with an even number of edges.
func EvenEdges() GraphLanguage {
	return GraphLanguage{
		Name:   "even-edges",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.M()%2 == 0 },
	}
}

// HasEdge is the language of graphs with at least one edge.
func HasEdge() GraphLanguage {
	return GraphLanguage{
		Name:   "has-edge",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.M() > 0 },
	}
}

// CompleteGraph is the language of complete graphs.
func CompleteGraph() GraphLanguage {
	return GraphLanguage{
		Name:   "complete",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.M() == g.N()*(g.N()-1)/2 },
	}
}

// TriangleFree is the language of triangle-free graphs.
func TriangleFree() GraphLanguage {
	return GraphLanguage{
		Name:   "triangle-free",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.IsTriangleFree() },
	}
}

// MaxDegreeAtMost is the language of graphs with maximum degree ≤ d.
func MaxDegreeAtMost(d int) GraphLanguage {
	return GraphLanguage{
		Name:   fmt.Sprintf("max-degree≤%d", d),
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.MaxDegree() <= d },
	}
}

// HamiltonianPath is the language of graphs containing a Hamiltonian
// path — the paper's second Remark 1 example (almost sure in
// G(n, 1/2)). The decider backtracks in O(n) extra space.
func HamiltonianPath() GraphLanguage {
	return GraphLanguage{
		Name:   "hamiltonian-path",
		Space:  LinearSpace,
		Decide: hasHamiltonianPath,
	}
}

func hasHamiltonianPath(g *graph.Graph) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	used := make([]bool, n)
	var extend func(u, placed int) bool
	extend = func(u, placed int) bool {
		if placed == n {
			return true
		}
		for _, v := range g.Neighbors(u) {
			if !used[v] {
				used[v] = true
				if extend(v, placed+1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	for s := 0; s < n; s++ {
		used[s] = true
		if extend(s, 1) {
			return true
		}
		used[s] = false
	}
	return false
}

// SpanningLineGraphs is the language of graphs that are spanning
// lines — used to demonstrate that the universal constructor can
// (inefficiently) build the paper's flagship network.
func SpanningLineGraphs() GraphLanguage {
	return GraphLanguage{
		Name:   "spanning-line",
		Space:  LogSpace,
		Decide: func(g *graph.Graph) bool { return g.IsSpanningLine() },
	}
}
