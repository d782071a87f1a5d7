// Package graph provides the undirected-graph substrate used across the
// reproduction: construction from simulator configurations, the target-
// network predicates of Section 3.2 (spanning line/ring/star, cycle
// cover, k-regular connected, clique partition), connectivity,
// isomorphism for output checking, the G(n,p) random-graph model used
// by the universal constructors, and DOT rendering for figures.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a simple undirected graph on vertex set {0, …, N−1} with an
// adjacency-list representation. The zero value is the empty graph on
// zero vertices.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// AddEdge inserts the undirected edge {u, v}; duplicate insertions and
// self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n || g.HasEdge(u, v) {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// AddEdgeUnchecked inserts the undirected edge {u, v} without
// AddEdge's duplicate scan: O(1). The caller must guarantee u ≠ v,
// both endpoints in range, and that the edge is not already present —
// e.g. when streaming each edge exactly once from
// core.Config.ForEachActiveEdge.
func (g *Graph) AddEdgeUnchecked(u, v int) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns a copy of u's adjacency list.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, len(g.adj[u]))
	copy(out, g.adj[u])
	return out
}

// DegreeSequence returns the sorted (ascending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, g.n)
	for u := range seq {
		seq[u] = len(g.adj[u])
	}
	sort.Ints(seq)
	return seq
}

// Edges returns the edge list with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabeled 0..len(vs)−1 in the order given, along with the mapping
// from new labels to original ones.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	index := make(map[int]int, len(vs))
	mapping := make([]int, len(vs))
	for i, v := range vs {
		index[v] = i
		mapping[i] = v
	}
	sub := New(len(vs))
	for i, v := range vs {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub, mapping
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		c.adj[u] = append([]int(nil), g.adj[u]...)
	}
	return c
}

// Equal reports whether g and h are identical as labeled graphs.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.M() != h.M() {
		return false
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if !h.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}

// String renders the graph as "n=5 edges=[0-1 1-2 …]".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", e[0], e[1])
	}
	sb.WriteByte(']')
	return sb.String()
}

// Line returns the path graph on n vertices (0−1−2−…).
func Line(n int) *Graph {
	g := New(n)
	for u := 0; u+1 < n; u++ {
		g.AddEdge(u, u+1)
	}
	return g
}

// Ring returns the cycle graph on n vertices.
func Ring(n int) *Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns the star graph with center 0 and n−1 leaves.
func Star(n int) *Graph {
	g := New(n)
	for u := 1; u < n; u++ {
		g.AddEdge(0, u)
	}
	return g
}

// Complete returns the complete graph on n vertices.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}
