package protocols

import (
	"fmt"

	"repro/internal/core"
)

// CCliques returns Protocol 8, the (5c−3)-state constructor that
// partitions the population into ⌊n/c⌋ cliques of order c (Theorem 12).
// The n mod c leftover nodes stabilize as one incomplete component.
//
// Each component is assembled by a leader that recruits c−1 followers,
// converts them to degree-counting states, and then roams its own
// component checking for (and dismantling, together with the other
// component's leader) wrong inter-component connections.
func CCliques(c int) (Constructor, error) {
	if c < 2 {
		return Constructor{}, fmt.Errorf("protocols: c-Cliques requires c ≥ 2, got %d", c)
	}
	if 5*c-3 > core.MaxStates {
		return Constructor{}, fmt.Errorf("protocols: c-Cliques with c=%d exceeds the state budget", c)
	}

	// State layout, in order: l0..l_{c−2}, f1..f_{c−2}, f, l̄0..l̄_{c−2},
	// l, 1..c−1, l′1..l′_{c−1}, r.
	names := make([]string, 0, 5*c-3)
	index := make(map[string]core.State, 5*c-3)
	addState := func(name string) {
		index[name] = core.State(len(names))
		names = append(names, name)
	}
	for i := 0; i <= c-2; i++ {
		addState(fmt.Sprintf("l%d", i))
	}
	for i := 1; i <= c-2; i++ {
		addState(fmt.Sprintf("f%d", i))
	}
	addState("f")
	for i := 0; i <= c-2; i++ {
		addState(fmt.Sprintf("lbar%d", i))
	}
	addState("l")
	for i := 1; i <= c-1; i++ {
		addState(fmt.Sprintf("%d", i))
	}
	for i := 1; i <= c-1; i++ {
		addState(fmt.Sprintf("l'%d", i))
	}
	addState("r")

	li := func(i int) core.State { return index[fmt.Sprintf("l%d", i)] }
	fi := func(i int) core.State { return index[fmt.Sprintf("f%d", i)] }
	lbar := func(i int) core.State { return index[fmt.Sprintf("lbar%d", i)] }
	num := func(i int) core.State { return index[fmt.Sprintf("%d", i)] }
	lp := func(i int) core.State { return index[fmt.Sprintf("l'%d", i)] }
	fSt, lSt, rSt := index["f"], index["l"], index["r"]

	var rules []core.Rule
	add := func(a, b core.State, edge bool, oa, ob core.State, oe bool) {
		rules = append(rules, core.Rule{A: a, B: b, Edge: edge, OutA: oa, OutB: ob, OutEdge: oe})
	}

	// A leader grows its component by attracting isolated nodes; the
	// node completing the component enters the numbered phase directly.
	if c == 2 {
		// Degenerate completion: a pair is a finished component and
		// there are no f-followers to convert.
		add(li(0), li(0), false, lSt, num(1), true)
	} else {
		for i := 0; i < c-2; i++ {
			add(li(i), li(0), false, li(i+1), fSt, true)
		}
		add(li(c-2), li(0), false, lbar(1), num(1), true)
	}
	// Nondeterministic elimination of incomplete components: a leader
	// absorbs another leader (which must later release its own
	// followers) to avoid deadlock among undersized components.
	for i := 1; i <= c-2; i++ {
		for j := 1; j <= i; j++ {
			if i < c-2 {
				add(li(i), li(j), false, li(i+1), fi(j), true)
			} else {
				add(li(i), li(j), false, lbar(0), fi(j), true)
			}
		}
	}
	// An absorbed leader releases its old followers one by one.
	for i := 2; i <= c-2; i++ {
		add(fi(i), fSt, true, fi(i-1), li(0), false)
	}
	if c >= 3 {
		add(fi(1), fSt, true, fSt, li(0), false)
	}
	// The leader of a complete component converts its f-followers into
	// numbered, degree-counting followers.
	for i := 0; i < c-2; i++ {
		add(lbar(i), fSt, true, lbar(i+1), num(1), true)
	}
	if c >= 3 {
		add(lbar(c-2), fSt, true, lSt, num(1), true)
	}
	// Numbered followers connect until their degree reaches c−1; the
	// counter equals the active degree (leader connection included).
	for i := 1; i <= c-2; i++ {
		for j := 1; j <= i; j++ {
			add(num(i), num(j), false, num(i+1), num(j+1), true)
		}
	}
	// The leader temporarily takes a follower's place to inspect its
	// connections.
	for i := 1; i <= c-1; i++ {
		add(lSt, num(i), true, rSt, lp(i), true)
	}
	// Two visiting leaders joined by an active edge sit on different
	// components: the connection is wrong and is dismantled. Counters
	// of 1 carry only the (correct) leader connection, so only i ≥ 2
	// can occur here.
	for i := 2; i <= c-1; i++ {
		for j := 2; j <= i; j++ {
			add(lp(i), lp(j), true, lp(i-1), lp(j-1), false)
		}
	}
	// The leader returns to its own position nondeterministically.
	for i := 1; i <= c-1; i++ {
		add(lp(i), rSt, true, num(i), lSt, true)
	}

	p, err := core.NewProtocol(fmt.Sprintf("c-Cliques(c=%d)", c), names, li(0), nil, rules)
	if err != nil {
		return Constructor{}, fmt.Errorf("protocols: compile c-Cliques: %w", err)
	}

	// An absorbed leader still holding its old connections means
	// pending deactivations.
	absorbed := make([]core.State, 0, c-2)
	for j := 1; j <= c-2; j++ {
		absorbed = append(absorbed, fi(j))
	}
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable:  func(cfg *core.Config) bool { return cliquesStable(cfg, c, absorbed) },
	}
	return Constructor{
		Proto:    p,
		Detector: det,
		Target:   fmt.Sprintf("partition into ⌊n/%d⌋ cliques of order %d", c, c),
		Theta:    "(Ω(n log n) LB)",
	}, nil
}

// cliquesStable is the c-Cliques stability predicate: no node is in an
// absorbed-leader state, and the active graph is ⌊n/c⌋ disjoint copies
// of K_c plus, when r = n mod c is non-zero, one leftover component on
// the remaining r nodes — an isolated node or a star around its leader.
//
// It runs after every effective step, so it rejects on O(1) and O(n)
// counters before it looks at the edges, and allocates only when a
// configuration of more than 64 nodes passes them:
//
//  1. every absorbed state's count is zero;
//  2. ActiveEdges = ⌊n/c⌋·c(c−1)/2 + max(r−1, 0), the edges of the
//     cliques and of a spanning tree on the leftover;
//  3. exactly r nodes have degree ≠ c−1, and for r ≥ 3 some node has
//     degree r−1 (a star's center);
//  4. every connected component has c or r nodes.
//
// These are exact. A component of r < c nodes has maximum degree at
// most r−1 < c−1, and sizes in {c, r} summing to n force exactly one
// component of r nodes when r > 0, so gate 3 leaves every node of the
// size-c components at degree c−1: each is K_c. The leftover then holds
// the r−1 edges gate 2 leaves over, so being connected it is a tree,
// and a tree on r nodes with a node of degree r−1 is a star. The
// degree-(r−1) node of gate 3 lies in the leftover, since clique nodes
// have degree c−1 ≠ r−1. Conversely every stable configuration passes
// all four gates.
func cliquesStable(cfg *core.Config, c int, absorbed []core.State) bool {
	for _, s := range absorbed {
		if cfg.Count(s) != 0 {
			return false
		}
	}
	n := cfg.N()
	r := n % c
	if cfg.ActiveEdges() != n/c*c*(c-1)/2+max(r-1, 0) {
		return false
	}
	off, center := 0, r < 3
	for u := 0; u < n; u++ {
		switch cfg.Degree(u) {
		case c - 1:
		case r - 1:
			off++
			center = true
		default:
			off++
		}
	}
	if off != r || !center {
		return false
	}
	// Union-find over the active edges; a root holds −(component size).
	// The scratch belongs to the call, since runs share the detector; up
	// to 64 nodes it sits on the stack, so the full check allocates
	// nothing at the paper-table sizes.
	var small [64]int32
	var parent []int32
	if n <= len(small) {
		parent = small[:n]
	} else {
		parent = make([]int32, n)
	}
	for u := range parent {
		parent[u] = -1
	}
	cfg.ForEachActiveEdge(func(u, v int) {
		a, b := findRoot(parent, int32(u)), findRoot(parent, int32(v))
		if a == b {
			return
		}
		if parent[a] > parent[b] {
			a, b = b, a
		}
		parent[a] += parent[b]
		parent[b] = a
	})
	for _, p := range parent {
		if p < 0 && int(-p) != c && int(-p) != r {
			return false
		}
	}
	return true
}

// findRoot returns u's union-find root, halving the path on the way.
func findRoot(parent []int32, u int32) int32 {
	for parent[u] >= 0 {
		if gp := parent[parent[u]]; gp >= 0 {
			parent[u] = gp
		}
		u = parent[u]
	}
	return u
}
