package protocols

import "repro/internal/core"

// Global-Star state indices (Protocol 4).
const (
	gsC core.State = iota // center candidate
	gsP                   // peripheral
)

// GlobalStar returns Protocol 4, the 2-state spanning-star constructor,
// optimal in both size and time (Θ(n² log n), Theorem 7): centers
// eliminate one another, center–peripheral pairs attract and
// peripheral–peripheral pairs repel.
func GlobalStar() Constructor {
	p := core.MustProtocol(
		"Global-Star",
		[]string{"c", "p"},
		gsC,
		nil,
		[]core.Rule{
			{A: gsC, B: gsC, Edge: false, OutA: gsC, OutB: gsP, OutEdge: true},
			{A: gsP, B: gsP, Edge: true, OutA: gsP, OutB: gsP, OutEdge: false},
			{A: gsC, B: gsP, Edge: false, OutA: gsC, OutB: gsP, OutEdge: true},
		},
	)
	// Stable iff a unique center is joined to every peripheral and no
	// peripheral–peripheral edge survives; with the degree aggregate
	// this is an O(n) check and the configuration is fully quiescent.
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			n := cfg.N()
			if n == 1 {
				return true
			}
			if cfg.Count(gsC) != 1 {
				return false
			}
			if cfg.ActiveEdges() != n-1 {
				return false
			}
			for u := 0; u < n; u++ {
				want := 1
				if cfg.Node(u) == gsC {
					want = n - 1
				}
				if cfg.Degree(u) != want {
					return false
				}
			}
			return true
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning star", Theta: "Θ(n² log n) (opt)"}
}
