package protocols

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// Graph-Replication state indices (Protocol 9). The protocol is the
// paper's only randomized direct constructor (class PREL): when a
// leader meets a follower it either copies the edge between them to
// the replica or keeps random-walking, each with probability 1/2.
const (
	grpQ0 core.State = iota // V1 initial
	grpR0                   // V2 initial
	grpL                    // leader in V1
	grpLa                   // leader that detected an active edge
	grpLd                   // leader that detected an inactive edge
	grpF                    // follower in V1
	grpFa
	grpFd
	grpR  // matched node in V2
	grpRa // V2 node told to activate
	grpRd // V2 node told to deactivate
	grpRp // r′ — V2 node that completed a copy
)

// GraphReplication returns Protocol 9, the 12-state Θ(n⁴ log n)
// constructor that copies an input graph G1 on V1 onto the fresh nodes
// of V2 (Theorem 13).
//
// For stabilization detection we treat r′ as an output state alongside
// {r, rₐ, r_d}: with the paper's literal Qout the perpetual copy loop
// keeps toggling nodes through the non-output r′ and the literal
// output never stabilizes, while with r′ in Qout the toggling leaves
// the output graph unchanged once every edge of G1 is copied.
func GraphReplication() Constructor {
	rules := []core.Rule{
		// Matching every u ∈ V1 to a distinct v ∈ V2.
		{A: grpQ0, B: grpR0, Edge: false, OutA: grpL, OutB: grpR, OutEdge: true},
	}
	// Leader election in V1 (over both edge states).
	for _, e := range []bool{false, true} {
		rules = append(rules, core.Rule{A: grpL, B: grpL, Edge: e, OutA: grpL, OutB: grpF, OutEdge: e})
	}
	// A non-edge of G1 detected: with probability 1/2 start copying,
	// with probability 1/2 the leader keeps walking.
	rules = append(rules,
		core.Rule{
			A: grpL, B: grpF, Edge: false,
			OutA: grpLd, OutB: grpFd, OutEdge: false,
			Alt: true, AltA: grpF, AltB: grpL, AltEdge: false,
		},
		// An edge of G1 detected: likewise.
		core.Rule{
			A: grpL, B: grpF, Edge: true,
			OutA: grpLa, OutB: grpFa, OutEdge: true,
			Alt: true, AltA: grpF, AltB: grpL, AltEdge: true,
		},
	)
	// Informing the matched V2 nodes to apply the copy.
	for _, x := range []struct{ v1, v2 core.State }{
		{grpLa, grpRa}, {grpLd, grpRd}, {grpFa, grpRa}, {grpFd, grpRd},
	} {
		rules = append(rules, core.Rule{A: x.v1, B: grpR, Edge: true, OutA: x.v1, OutB: x.v2, OutEdge: true})
	}
	// The copy applied in G2 (over both current edge states).
	for _, e := range []bool{false, true} {
		rules = append(rules,
			core.Rule{A: grpRa, B: grpRa, Edge: e, OutA: grpRp, OutB: grpRp, OutEdge: true},
			core.Rule{A: grpRd, B: grpRd, Edge: e, OutA: grpRp, OutB: grpRp, OutEdge: false},
		)
	}
	// Informing the matched V1 nodes that the copy was performed.
	for _, x := range []struct{ marked, clean core.State }{
		{grpLa, grpL}, {grpLd, grpL}, {grpFa, grpF}, {grpFd, grpF},
	} {
		rules = append(rules, core.Rule{A: grpRp, B: x.marked, Edge: true, OutA: grpR, OutB: x.clean, OutEdge: true})
	}
	// Leader election also applies to marked leaders to prevent
	// blocking.
	for _, e := range []bool{false, true} {
		rules = append(rules,
			core.Rule{A: grpLa, B: grpL, Edge: e, OutA: grpLa, OutB: grpF, OutEdge: e},
			core.Rule{A: grpLd, B: grpL, Edge: e, OutA: grpLd, OutB: grpF, OutEdge: e},
			core.Rule{A: grpLa, B: grpLa, Edge: e, OutA: grpLa, OutB: grpFa, OutEdge: e},
			core.Rule{A: grpLa, B: grpLd, Edge: e, OutA: grpLa, OutB: grpFd, OutEdge: e},
			core.Rule{A: grpLd, B: grpLd, Edge: e, OutA: grpLd, OutB: grpFd, OutEdge: e},
		)
	}

	p := core.MustProtocol(
		"Graph-Replication",
		[]string{"q0", "r0", "l", "la", "ld", "f", "fa", "fd", "r", "ra", "rd", "r'"},
		grpQ0,
		[]core.State{grpR, grpRa, grpRd, grpRp},
		rules,
	)
	return Constructor{Proto: p, Target: "replica of the input graph on V2", Theta: "Θ(n⁴ log n)"}
}

// ringReplication is the registered Graph-Replication row of Table 2:
// the input is a ring on ⌊n/2⌋ nodes, replicated onto the other half.
func ringReplication() Constructor {
	c := GraphReplication()
	c.Detector = replicationDetector(func(n int) *graph.Graph { return graph.Ring(n / 2) })
	c.Initial = func(n int) (*core.Config, error) {
		return ReplicationInitial(c.Proto, graph.Ring(n/2), n)
	}
	return c
}

// ReplicationInitial builds Protocol 9's initial configuration on n
// nodes: nodes 0..|V1|−1 carry the input graph g1 (state q0, E1
// active), the remaining nodes are fresh (state r0, all edges
// inactive). Requires |V2| = n − |V1| ≥ |V1|.
func ReplicationInitial(p *core.Protocol, g1 *graph.Graph, n int) (*core.Config, error) {
	n1 := g1.N()
	if n-n1 < n1 {
		return nil, fmt.Errorf("protocols: replication needs |V2| ≥ |V1|: n=%d, |V1|=%d", n, n1)
	}
	cfg := core.NewConfig(p, n)
	for u := 0; u < n1; u++ {
		cfg.SetNode(u, grpQ0)
	}
	for u := n1; u < n; u++ {
		cfg.SetNode(u, grpR0)
	}
	for _, e := range g1.Edges() {
		cfg.SetEdge(e[0], e[1], true)
	}
	return cfg, nil
}

// ReplicationDetector returns the stability predicate for a run of
// Graph-Replication on input g1: a unique leader remains, no copy
// operation is in flight, and the active graph induced by the matched
// V2 nodes is isomorphic to g1. The paper proves such configurations
// output-stable (any further copy rewrites an already-correct value).
func ReplicationDetector(g1 *graph.Graph) core.Detector {
	return replicationDetector(func(int) *graph.Graph { return g1 })
}

// replicationDetector is ReplicationDetector for an input graph that
// depends on the population size. The input is built once per size
// and kept, immutable, behind an atomic pointer, so concurrent runs
// sharing the detector read it without a lock; it is first built only
// once the O(1) count checks pass.
func replicationDetector(input func(n int) *graph.Graph) core.Detector {
	type sized struct {
		n, m int // population size, input edge count
		g    *graph.Graph
	}
	var last atomic.Pointer[sized]
	inputFor := func(n int) *sized {
		if in := last.Load(); in != nil && in.n == n {
			return in
		}
		g := input(n)
		in := &sized{n: n, m: g.M(), g: g}
		last.Store(in)
		return in
	}
	return core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			if cfg.Count(grpQ0) != 0 {
				return false
			}
			if cfg.Count(grpL) != 1 || cfg.Count(grpLa) != 0 || cfg.Count(grpLd) != 0 {
				return false
			}
			if cfg.Count(grpFa) != 0 || cfg.Count(grpFd) != 0 ||
				cfg.Count(grpRa) != 0 || cfg.Count(grpRd) != 0 || cfg.Count(grpRp) != 0 {
				return false
			}
			in := inputFor(cfg.N())
			n1 := in.g.N()
			if cfg.Count(grpR) != n1 {
				return false
			}
			// Isomorphic graphs have equal edge counts, so the replica's
			// induced active-edge count rejects before g2 is built.
			induced := 0
			cfg.ForEachActiveEdge(func(u, v int) {
				if cfg.Node(u) == grpR && cfg.Node(v) == grpR {
					induced++
				}
			})
			if induced != in.m {
				return false
			}
			members := make([]int, 0, n1)
			for u := 0; u < cfg.N(); u++ {
				if cfg.Node(u) == grpR {
					members = append(members, u)
				}
			}
			g2 := graph.New(len(members))
			for i := range members {
				for j := i + 1; j < len(members); j++ {
					if cfg.Edge(members[i], members[j]) {
						g2.AddEdge(i, j)
					}
				}
			}
			return graph.Isomorphic(in.g, g2)
		},
	}
}
