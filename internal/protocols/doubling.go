package protocols

import (
	"fmt"

	"repro/internal/core"
)

// DegreeDoubling returns the Section 5 construction showing that the
// target degree is not a lower bound on protocol size: a distinguished
// node u obtains exactly 2^d neighbors using only Θ(d) states, by
// collecting two neighbors and then doubling their number d−1 times
// (every converted aᵢ neighbor recruits one more, so the aᵢ₊₁
// generation is twice the aᵢ generation).
//
// The initial configuration is non-uniform: one node starts in q0, all
// others in a0 (DegreeDoublingInitial, the entry's Initial). Requires
// n ≥ 2^d + 1.
func DegreeDoubling(d int) (Constructor, error) {
	if d < 1 {
		return Constructor{}, fmt.Errorf("protocols: degree doubling requires d ≥ 1, got %d", d)
	}
	if d > 20 {
		return Constructor{}, fmt.Errorf("protocols: degree doubling with d=%d would need 2^%d nodes", d, d)
	}

	// State layout: q0, q0', q, q2..qd, a0..ad.
	names := []string{"q0", "q0'", "q"}
	qIdx := func(j int) core.State { return core.State(3 + (j - 2)) } // q2.. at 3..
	aBase := 3 + (d - 1)
	for j := 2; j <= d; j++ {
		names = append(names, fmt.Sprintf("q%d", j))
	}
	for i := 0; i <= d; i++ {
		names = append(names, fmt.Sprintf("a%d", i))
	}
	aIdx := func(i int) core.State { return core.State(aBase + i) }
	const (
		ddQ0  core.State = 0
		ddQ0p core.State = 1
		ddQ   core.State = 2
	)

	rules := []core.Rule{
		{A: ddQ0, B: aIdx(0), Edge: false, OutA: ddQ0p, OutB: aIdx(1), OutEdge: true},
		{A: ddQ0p, B: aIdx(0), Edge: false, OutA: ddQ, OutB: aIdx(1), OutEdge: true},
	}
	for i := 1; i <= d-1; i++ {
		rules = append(rules, core.Rule{
			A: ddQ, B: aIdx(i), Edge: true, OutA: qIdx(i + 1), OutB: aIdx(i + 1), OutEdge: true,
		})
	}
	for j := 2; j <= d; j++ {
		rules = append(rules, core.Rule{
			A: qIdx(j), B: aIdx(0), Edge: false, OutA: ddQ, OutB: aIdx(j), OutEdge: true,
		})
	}

	p, err := core.NewProtocol(fmt.Sprintf("Degree-Doubling(d=%d)", d), names, aIdx(0), nil, rules)
	if err != nil {
		return Constructor{}, fmt.Errorf("protocols: compile degree doubling: %w", err)
	}

	want := 1 << d
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			if cfg.Count(ddQ) != 1 || cfg.Count(aIdx(d)) != want {
				return false
			}
			for i := 1; i < d; i++ {
				if cfg.Count(aIdx(i)) != 0 {
					return false
				}
			}
			return true
		},
	}
	return Constructor{
		Proto:    p,
		Detector: det,
		Target:   fmt.Sprintf("distinguished node with exactly %d neighbors", want),
		Initial:  func(n int) (*core.Config, error) { return DegreeDoublingInitial(p, n) },
	}, nil
}

// DegreeDoublingInitial builds the non-uniform initial configuration:
// node 0 in q0, every other node in a0. It refuses n < 2^d + 1, where
// the 2^d neighbors the target asks for do not exist and no run can
// converge.
func DegreeDoublingInitial(p *core.Protocol, n int) (*core.Config, error) {
	q0, ok := p.StateIndex("q0")
	if !ok {
		return nil, fmt.Errorf("protocols: %q is not a degree-doubling protocol", p.Name())
	}
	d := (p.Size() - 3) / 2 // q0, q0', q, q2..qd, a0..ad
	if n < 1<<d+1 {
		return nil, fmt.Errorf("protocols: degree doubling with d=%d needs n ≥ 2^%d+1 = %d nodes, got %d", d, d, 1<<d+1, n)
	}
	cfg := core.NewConfig(p, n)
	cfg.SetNode(0, q0)
	return cfg, nil
}
