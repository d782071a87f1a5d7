// Package processes implements the seven fundamental probabilistic
// processes of Section 3.3 (Table 1), which recur in the running-time
// analyses of all network constructors, together with their analytic
// expected convergence times (Propositions 1–7) for empirical
// validation.
package processes

import (
	"errors"

	"repro/internal/core"
)

// Process pairs a protocol with its detector, its start configuration
// and the analytic expected convergence time under the uniform random
// scheduler.
type Process struct {
	Proto    *core.Protocol
	Detector core.Detector
	// Expected returns the exact or asymptotically tight analytic
	// expectation E[X] for population size n (the closed forms from
	// the propositions' proofs, not just the Θ-class).
	Expected func(n int) float64
	// Theta is the paper's Θ-class as a printable string.
	Theta string
	// Initial, when non-nil, builds the start configuration on n
	// nodes; nil means the uniform all-q0 one. One-Way-Epidemic and
	// Meet-Everybody start with one node in the distinguished state a.
	Initial func(n int) (*core.Config, error)
}

// Shared two-state indices.
const (
	stA core.State = iota
	stB
)

const (
	meA core.State = iota
	meB
	meC
)

// OneWayEpidemic is the process (a,b) → (a,a) started from one a:
// Θ(n log n) to infect everyone (Proposition 1).
func OneWayEpidemic() Process {
	p := core.MustProtocol(
		"One-Way-Epidemic",
		[]string{"a", "b"},
		stB,
		nil,
		[]core.Rule{{A: stA, B: stB, Edge: false, OutA: stA, OutB: stA},
			{A: stA, B: stB, Edge: true, OutA: stA, OutB: stA, OutEdge: true}},
	)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(stB) == 0 },
		},
		Expected: func(n int) float64 {
			// E[X] = Σ_{i=1}^{n−1} n(n−1) / (2 i (n−i)).
			total := 0.0
			for i := 1; i <= n-1; i++ {
				total += float64(n) * float64(n-1) / (2 * float64(i) * float64(n-i))
			}
			return total
		},
		Theta:   "Θ(n log n)",
		Initial: func(n int) (*core.Config, error) { return InitialWithOneA(p, n) },
	}
}

// OneToOneElimination is (a,a) → (a,b) started from all a: Θ(n²) until
// a single a remains (Proposition 2).
func OneToOneElimination() Process {
	p := core.MustProtocol(
		"One-To-One-Elimination",
		[]string{"a", "b"},
		stA,
		nil,
		[]core.Rule{{A: stA, B: stA, Edge: false, OutA: stA, OutB: stB},
			{A: stA, B: stA, Edge: true, OutA: stA, OutB: stB, OutEdge: true}},
	)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(stA) <= 1 },
		},
		Expected: func(n int) float64 {
			// E[X] = n(n−1) Σ_{i=2}^{n} 1/(i(i−1)).
			total := 0.0
			for i := 2; i <= n; i++ {
				total += 1 / (float64(i) * float64(i-1))
			}
			return float64(n) * float64(n-1) * total
		},
		Theta: "Θ(n²)",
	}
}

// MaximumMatching is (a,a,0) → (b,b,1) started from all a: Θ(n²) until
// ⌊n/2⌋ disjoint edges are active (Proposition 3).
func MaximumMatching() Process {
	p := core.MustProtocol(
		"Maximum-Matching",
		[]string{"a", "b"},
		stA,
		nil,
		[]core.Rule{{A: stA, B: stA, Edge: false, OutA: stB, OutB: stB, OutEdge: true}},
	)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(stA) <= 1 },
		},
		Expected: func(n int) float64 {
			// Epochs with i matched pairs succeed with probability
			// (n−2i)(n−2i−1)/(n(n−1)).
			total := 0.0
			for i := 0; i < n/2; i++ {
				r := float64(n - 2*i)
				total += float64(n) * float64(n-1) / (r * (r - 1))
			}
			return total
		},
		Theta: "Θ(n²)",
	}
}

// OneToAllElimination is (a,a) → (b,a), (a,b) → (b,b) started from all
// a: Θ(n log n) until no a remains (Proposition 4).
func OneToAllElimination() Process {
	rules := []core.Rule{
		{A: stA, B: stA, Edge: false, OutA: stB, OutB: stA},
		{A: stA, B: stA, Edge: true, OutA: stB, OutB: stA, OutEdge: true},
		{A: stA, B: stB, Edge: false, OutA: stB, OutB: stB},
		{A: stA, B: stB, Edge: true, OutA: stB, OutB: stB, OutEdge: true},
	}
	p := core.MustProtocol("One-To-All-Elimination", []string{"a", "b"}, stA, nil, rules)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(stA) == 0 },
		},
		Expected: func(n int) float64 {
			// E[X] = n(n−1) Σ_{i=0}^{n−1} 1/(n(n−1) − i(i−1)), where i
			// counts the bs.
			if n < 2 {
				return 0
			}
			total := 0.0
			m := float64(n) * float64(n-1)
			for i := 0; i <= n-1; i++ {
				total += m / (m - float64(i)*float64(i-1))
			}
			return total
		},
		Theta: "Θ(n log n)",
	}
}

// MeetEverybody is (a,b) → (a,c) with a unique a: Θ(n² log n) until the
// a-node has met every other node (Proposition 5).
func MeetEverybody() Process {
	rules := []core.Rule{
		{A: meA, B: meB, Edge: false, OutA: meA, OutB: meC},
		{A: meA, B: meB, Edge: true, OutA: meA, OutB: meC, OutEdge: true},
	}
	p := core.MustProtocol("Meet-Everybody", []string{"a", "b", "c"}, meB, nil, rules)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(meB) == 0 },
		},
		Expected: func(n int) float64 {
			// The unique a interacts with a uniformly random partner
			// every n/2 steps on average; coupon collection over n−1
			// partners: E[X] = Σ_{k=1}^{n−1} n(n−1)/(2k).
			total := 0.0
			for k := 1; k <= n-1; k++ {
				total += float64(n) * float64(n-1) / (2 * float64(k))
			}
			return total
		},
		Theta:   "Θ(n² log n)",
		Initial: func(n int) (*core.Config, error) { return InitialWithOneA(p, n) },
	}
}

// NodeCover is (a,a) → (b,b), (a,b) → (b,b) started from all a:
// Θ(n log n) until every node has interacted at least once
// (Proposition 6).
func NodeCover() Process {
	rules := []core.Rule{
		{A: stA, B: stA, Edge: false, OutA: stB, OutB: stB},
		{A: stA, B: stA, Edge: true, OutA: stB, OutB: stB, OutEdge: true},
		{A: stA, B: stB, Edge: false, OutA: stB, OutB: stB},
		{A: stA, B: stB, Edge: true, OutA: stB, OutB: stB, OutEdge: true},
	}
	p := core.MustProtocol("Node-Cover", []string{"a", "b"}, stA, nil, rules)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable:  func(cfg *core.Config) bool { return cfg.Count(stA) == 0 },
		},
		Expected: func(n int) float64 {
			// Exact first-passage mean on the uncovered count k: an
			// a–a pair (probability p₂ = C(k,2)/C(n,2)) lowers k by 2,
			// an a–b pair (p₁ = k(n−k)/C(n,2)) by 1, so
			// E[k] = (1 + p₁·E[k−1] + p₂·E[k−2]) / (p₁ + p₂), E[0] = 0.
			if n < 2 {
				return 0
			}
			pairs := float64(n) * float64(n-1) / 2
			prev2, prev1 := 0.0, 0.0 // E[k−2], E[k−1]
			for k := 1; k <= n; k++ {
				fk := float64(k)
				p2 := fk * (fk - 1) / 2 / pairs
				p1 := fk * float64(n-k) / pairs
				prev2, prev1 = prev1, (1+p1*prev1+p2*prev2)/(p1+p2)
			}
			return prev1
		},
		Theta: "Θ(n log n)",
	}
}

// EdgeCover is (a,a,0) → (a,a,1): Θ(n² log n) until every edge of the
// complete interaction graph has been activated (Proposition 7).
func EdgeCover() Process {
	p := core.MustProtocol(
		"Edge-Cover",
		[]string{"a"},
		stA,
		nil,
		[]core.Rule{{A: stA, B: stA, Edge: false, OutA: stA, OutB: stA, OutEdge: true}},
	)
	return Process{
		Proto: p,
		Detector: core.Detector{
			Trigger: core.TriggerEffective,
			Stable: func(cfg *core.Config) bool {
				n := cfg.N()
				return cfg.ActiveEdges() == n*(n-1)/2
			},
		},
		Expected: func(n int) float64 {
			// Coupon collector over m = n(n−1)/2 coupons:
			// E[X] = m · H_m.
			m := n * (n - 1) / 2
			total := 0.0
			for i := 1; i <= m; i++ {
				total += float64(m) / float64(i)
			}
			return total
		},
		Theta: "Θ(n² log n)",
	}
}

// All returns the seven Table 1 processes in the paper's order.
func All() []Process {
	return []Process{
		OneWayEpidemic(),
		OneToOneElimination(),
		MaximumMatching(),
		OneToAllElimination(),
		MeetEverybody(),
		NodeCover(),
		EdgeCover(),
	}
}

// InitialWithOneA builds the initial configuration for processes that
// start with a single distinguished node (one-way epidemic's a, meet
// everybody's a): node 0 in the distinguished state, the rest in the
// protocol's initial state.
func InitialWithOneA(p *core.Protocol, n int) (*core.Config, error) {
	a, ok := p.StateIndex("a")
	if !ok {
		return nil, errNoStateA
	}
	cfg := core.NewConfig(p, n)
	cfg.SetNode(0, a)
	return cfg, nil
}

var errNoStateA = errors.New(`processes: protocol has no state named "a"`)
