// Package protocols implements every direct network constructor from
// Michail & Spirakis: the spanning-line protocols of Section 4
// (Simple-Global-Line, Fast-Global-Line and the experimental
// Faster-Global-Line of Section 7), the Section 5 constructors
// (Cycle-Cover, Global-Star, Global-Ring, 2RC, kRC, c-Cliques,
// Graph-Replication), the Theorem 1 spanning-network protocol, and the
// degree-doubling construction discussed in Sections 5 and 7.
//
// Each constructor pairs its compiled protocol with a convergence
// detector whose predicate holds exactly on configurations the paper
// proves output-stable, so a detected run's ConvergenceTime is the
// paper's running time.
package protocols

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Constructor is one registry entry — a measured row: a protocol with
// its stability detector, a human-readable description of its target,
// and how a measurement of it starts and is read.
type Constructor struct {
	Proto    *core.Protocol
	Detector core.Detector
	Target   string
	// Initial, when non-nil, builds the start configuration on n nodes
	// (an error names a population the entry cannot start from); nil
	// means the all-q0 configuration.
	Initial func(n int) (*core.Config, error)
	// Metric names the default measured quantity (a campaign metric
	// name); "" means convergence-time.
	Metric string
	// Expected, when non-nil, is the analytic expectation of the metric
	// on n nodes.
	Expected func(n int) float64
	// Theta is the paper's running-time bound as the tables print it.
	Theta string
}

// ActiveGraph returns the graph induced by all nodes and the active
// edges — the output graph for protocols whose every state is an
// output state. It streams the configuration's edge set, so it costs
// O(n + m) on adjacency-backed configurations instead of an edge
// probe for each of the n(n−1)/2 pairs.
func ActiveGraph(cfg *core.Config) *graph.Graph {
	g := graph.New(cfg.N())
	cfg.ForEachActiveEdge(g.AddEdgeUnchecked)
	return g
}

// OutputGraph returns the paper's output graph: the subgraph induced by
// nodes in output states together with the active edges joining them.
// The returned mapping translates output-graph vertices back to
// population node indices. Like ActiveGraph it streams the
// configuration's edge set through a node→vertex map, in O(n + m).
func OutputGraph(cfg *core.Config) (*graph.Graph, []int) {
	p := cfg.Protocol()
	var members []int
	vertex := make([]int, cfg.N())
	for u := range vertex {
		vertex[u] = -1
		if p.IsOutput(cfg.Node(u)) {
			vertex[u] = len(members)
			members = append(members, u)
		}
	}
	g := graph.New(len(members))
	cfg.ForEachActiveEdge(func(u, v int) {
		if vertex[u] >= 0 && vertex[v] >= 0 {
			g.AddEdgeUnchecked(vertex[u], vertex[v])
		}
	})
	return g, members
}
