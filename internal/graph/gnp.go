package graph

import "math/rand/v2"

// Gnp samples a graph from the Erdős–Rényi model G(n, p): every edge
// present independently with probability p — the gnp@p interaction
// topology (core.TopologySpec). Each pair is drawn once, so no edge can
// repeat.
func Gnp(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdgeUnchecked(u, v)
			}
		}
	}
	return g
}

// GnHalf samples a uniformly random graph on n vertices (G(n, 1/2))
// using single fair-coin flips per edge — exactly the experiment the
// paper's constructors perform with the PREL coin. Each pair is
// flipped once, so no edge can repeat.
func GnHalf(n int, coin func() bool) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if coin() {
				g.AddEdgeUnchecked(u, v)
			}
		}
	}
	return g
}
