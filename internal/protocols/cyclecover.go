package protocols

import "repro/internal/core"

// Cycle-Cover state indices (Protocol 3). A node in state qᵢ has
// active degree exactly i — the protocol's central invariant.
const (
	ccQ0 core.State = iota
	ccQ1
	ccQ2
)

// CycleCover returns Protocol 3, the 3-state, time-optimal Θ(n²)
// constructor that partitions the population into node-disjoint cycles
// with waste at most 2 (Theorem 5).
func CycleCover() Constructor {
	p := core.MustProtocol(
		"Cycle-Cover",
		[]string{"q0", "q1", "q2"},
		ccQ0,
		nil,
		[]core.Rule{
			{A: ccQ0, B: ccQ0, Edge: false, OutA: ccQ1, OutB: ccQ1, OutEdge: true},
			{A: ccQ1, B: ccQ0, Edge: false, OutA: ccQ2, OutB: ccQ1, OutEdge: true},
			{A: ccQ1, B: ccQ1, Edge: false, OutA: ccQ2, OutB: ccQ2, OutEdge: true},
		},
	)
	// Stable exactly when no two under-degree nodes can still connect:
	// either everyone has degree 2, or the residue is one isolated q0,
	// or a single active edge joining the only two q1 nodes. These are
	// precisely the quiescent configurations.
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			n0, n1 := cfg.Count(ccQ0), cfg.Count(ccQ1)
			switch {
			case n0 == 0 && n1 == 0:
				return true
			case n0 == 1 && n1 == 0:
				return true
			case n0 == 0 && n1 == 2:
				// The two q1 endpoints must already be joined, i.e.
				// they form the lone leftover edge.
				first := -1
				for u := 0; u < cfg.N(); u++ {
					if cfg.Node(u) != ccQ1 {
						continue
					}
					if first < 0 {
						first = u
						continue
					}
					return cfg.Edge(first, u)
				}
				return false
			default:
				return cfg.N() == 1
			}
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "cycle cover (waste ≤ 2)", Theta: "Θ(n²) (opt)"}
}
