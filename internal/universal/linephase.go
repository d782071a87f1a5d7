package universal

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// withDead extends a protocol with an inert "dead" state so it can run
// on a subpopulation of a larger population: dead nodes match no rule,
// so interactions touching them are wasted steps — exactly the cost
// the uniform random scheduler imposes on a phase that only involves
// part of the population.
func withDead(p *core.Protocol) (*core.Protocol, core.State, error) {
	states := append(p.States(), "dead")
	dead := core.State(len(states) - 1)
	ext, err := core.NewProtocol(p.Name()+"+dead", states, p.Initial(), nil, p.Rules())
	if err != nil {
		return nil, 0, fmt.Errorf("universal: extend %q with dead state: %w", p.Name(), err)
	}
	return ext, dead, nil
}

// linePhase builds a spanning line over the live subset of the
// population by running a real spanning-line constructor in which all
// other nodes are inert, preserving any pre-existing active edges
// (e.g. the U–D matching). It returns the final configuration, the
// live nodes in line order, and the run result.
func linePhase(base protocols.Constructor, n int, live []int, carry *core.Config, seed uint64, maxSteps int64) (*core.Config, []int, core.Result, error) {
	ext, dead, err := withDead(base.Proto)
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	// vertex maps each population node to its index in live, −1 for
	// the inert rest.
	vertex := make([]int, n)
	for u := range vertex {
		vertex[u] = -1
	}
	for i, u := range live {
		vertex[u] = i
	}
	initial := core.NewConfig(ext, n)
	for u := 0; u < n; u++ {
		if vertex[u] < 0 {
			initial.SetNode(u, dead)
		}
	}
	if carry != nil {
		carry.ForEachActiveEdge(func(u, v int) { initial.SetEdge(u, v, true) })
	}

	lineOn := func(cfg *core.Config) (*graph.Graph, bool) {
		sub := graph.New(len(live))
		cfg.ForEachActiveEdge(func(u, v int) {
			if vertex[u] >= 0 && vertex[v] >= 0 {
				sub.AddEdgeUnchecked(vertex[u], vertex[v])
			}
		})
		return sub, sub.IsSpanningLine()
	}
	gate, err := lineGate(ext)
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			if !gate(cfg) {
				return false
			}
			_, ok := lineOn(cfg)
			return ok
		},
	}
	res, err := core.Run(ext, n, core.Options{
		Seed:     seed,
		Detector: det,
		Initial:  initial,
		MaxSteps: maxSteps,
	})
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	if !res.Converged {
		return nil, nil, res, fmt.Errorf("universal: line phase did not converge within %d steps", res.Steps)
	}

	sub, _ := lineOn(res.Final)
	order, err := lineOrder(sub)
	if err != nil {
		return nil, nil, res, err
	}
	ordered := make([]int, len(order))
	for i, idx := range order {
		ordered[i] = live[idx]
	}
	return res.Final, ordered, res, nil
}

// lineGate returns the protocol-specific O(1) precondition under which
// "the live subgraph is a spanning line" is absorbing: for
// Simple-Global-Line (which never deactivates) the absence of q0
// suffices; for Fast-Global-Line the steal machinery must also be
// drained so the line cannot be broken again.
func lineGate(p *core.Protocol) (func(cfg *core.Config) bool, error) {
	count := func(name string) (core.State, error) {
		s, ok := p.StateIndex(name)
		if !ok {
			return 0, fmt.Errorf("universal: protocol %q lacks state %q", p.Name(), name)
		}
		return s, nil
	}
	q0, err := count("q0")
	if err != nil {
		return nil, err
	}
	if _, ok := p.StateIndex("l''"); !ok {
		// Simple-Global-Line shape.
		return func(cfg *core.Config) bool { return cfg.Count(q0) == 0 }, nil
	}
	var gates []core.State
	for _, name := range []string{"l'", "l''", "q2'", "f0", "f1"} {
		s, err := count(name)
		if err != nil {
			return nil, err
		}
		gates = append(gates, s)
	}
	l, err := count("l")
	if err != nil {
		return nil, err
	}
	return func(cfg *core.Config) bool {
		if cfg.Count(q0) != 0 || cfg.Count(l) != 1 {
			return false
		}
		for _, s := range gates {
			if cfg.Count(s) != 0 {
				return false
			}
		}
		return true
	}, nil
}

// lineOrder returns the vertices of a path graph in endpoint-to-
// endpoint order.
func lineOrder(g *graph.Graph) ([]int, error) {
	n := g.N()
	if n == 1 {
		return []int{0}, nil
	}
	start := -1
	for u := 0; u < n; u++ {
		if g.Degree(u) == 1 {
			start = u
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("universal: graph %v is not a line", g)
	}
	order := make([]int, 0, n)
	prev, cur := -1, start
	for {
		order = append(order, cur)
		next := -1
		for _, v := range g.Neighbors(cur) {
			if v != prev {
				next = v
				break
			}
		}
		if next < 0 {
			break
		}
		prev, cur = cur, next
	}
	if len(order) != n {
		return nil, fmt.Errorf("universal: line order visited %d of %d nodes", len(order), n)
	}
	return order, nil
}
