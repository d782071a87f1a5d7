package protocols

import (
	"fmt"

	"repro/internal/core"
)

// KRC returns Protocol 7, the 2(k+1)-state constructor of a connected
// spanning k-regular network for any fixed k ≥ 2 (Theorem 11: at least
// n−k+1 nodes reach degree exactly k and each of the remaining ℓ ≤ k−1
// nodes has degree between ℓ−1 and k−1). For k = 2 this is exactly
// Protocol 6 (2RC) and constructs a spanning ring (Theorem 10).
//
// State layout: qᵢ (0 ≤ i ≤ k) is a non-leader of active degree i;
// lⱼ (1 ≤ j ≤ k+1) is a leader of active degree j, with l_{k+1} the
// transient over-degree state used to open a k-regular component when
// another component is detected.
func KRC(k int) (Constructor, error) {
	if k < 2 {
		return Constructor{}, fmt.Errorf("protocols: kRC requires k ≥ 2, got %d", k)
	}
	if 2*(k+1) > core.MaxStates {
		return Constructor{}, fmt.Errorf("protocols: kRC with k=%d exceeds the state budget", k)
	}
	// Indices: q0..qk occupy 0..k; l1..l_{k+1} occupy k+1..2k+1.
	q := func(i int) core.State { return core.State(i) }
	l := func(j int) core.State { return core.State(k + j) }
	names := make([]string, 0, 2*(k+1))
	for i := 0; i <= k; i++ {
		names = append(names, fmt.Sprintf("q%d", i))
	}
	for j := 1; j <= k+1; j++ {
		names = append(names, fmt.Sprintf("l%d", j))
	}

	var rules []core.Rule
	add := func(a, b core.State, edge bool, oa, ob core.State, oe bool) {
		rules = append(rules, core.Rule{A: a, B: b, Edge: edge, OutA: oa, OutB: ob, OutEdge: oe})
	}

	// Two isolated nodes connect; one becomes the component's leader.
	add(q(0), q(0), false, q(1), l(1), true)
	// Non-leaders below target degree connect (j ≤ i orientation keeps
	// the unordered rule set conflict-free; the (q0,q0) pair is the
	// leader-creating rule above).
	for i := 1; i < k; i++ {
		for j := 0; j <= i; j++ {
			add(q(i), q(j), false, q(i+1), q(j+1), true)
		}
	}
	// Two leaders connect; one survives, the other is demoted.
	for i := 1; i < k; i++ {
		for j := 1; j <= i; j++ {
			add(l(i), l(j), false, l(i+1), q(j+1), true)
		}
	}
	// A leader connects to a non-leader and hands over the token.
	for i := 1; i < k; i++ {
		for j := 0; j < k; j++ {
			add(l(i), q(j), false, q(i+1), l(j+1), true)
		}
	}
	// Swapping: leaders keep moving inside their component.
	for i := 1; i <= k; i++ {
		for j := 1; j <= k; j++ {
			add(l(i), q(j), true, q(i), l(j), true)
		}
	}
	// Leader elimination: eventually one leader per component.
	for i := 1; i <= k; i++ {
		for j := 1; j <= i; j++ {
			add(l(i), l(j), true, q(i), l(j), true)
		}
	}
	// Opening k-regular components in the presence of other components.
	add(l(k), q(0), false, l(k+1), q(1), true)
	for i := 1; i < k; i++ {
		add(l(k), l(i), false, l(k+1), q(i+1), true)
	}
	add(l(k), l(k), false, l(k+1), l(k+1), true)
	add(l(k+1), q(1), true, l(k), q(0), false)
	for i := 2; i <= k; i++ {
		add(l(k+1), q(i), true, l(k), l(i-1), false)
	}
	add(l(k+1), l(1), true, l(k), q(0), false)
	for i := 2; i <= k; i++ {
		add(l(k+1), l(i), true, l(k), l(i-1), false)
	}
	add(l(k+1), l(k+1), true, l(k), l(k), false)

	name := "kRC"
	if k == 2 {
		name = "2RC"
	}
	p, err := core.NewProtocol(fmt.Sprintf("%s(k=%d)", name, k), names, q(0), nil, rules)
	if err != nil {
		return Constructor{}, fmt.Errorf("protocols: compile kRC: %w", err)
	}

	leaderCount := func(cfg *core.Config) int {
		total := 0
		for j := 1; j <= k+1; j++ {
			total += cfg.Count(l(j))
		}
		return total
	}
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			n := cfg.N()
			if n < k+1 {
				return false
			}
			if cfg.Count(l(k+1)) != 0 || leaderCount(cfg) != 1 {
				return false
			}
			// Absorbing test: no activation rule can ever apply again,
			// regardless of where the leader token wanders — every
			// pair of below-degree-k nodes must already be adjacent.
			var low []int
			for u := 0; u < n; u++ {
				d := cfg.Degree(u)
				if d < k {
					low = append(low, u)
				}
				if d == 0 {
					return false
				}
			}
			if len(low) > k-1 {
				return false
			}
			for i := 0; i < len(low); i++ {
				for j := i + 1; j < len(low); j++ {
					if !cfg.Edge(low[i], low[j]) {
						return false
					}
				}
			}
			return ActiveGraph(cfg).IsNearKRegularConnected(k)
		},
	}
	target := fmt.Sprintf("connected spanning %d-regular network", k)
	if k == 2 {
		target = "spanning ring"
	}
	return Constructor{Proto: p, Detector: det, Target: target, Theta: "(Ω(n log n) LB)"}, nil
}

// TwoRC returns Protocol 6 (2RC), the 6-state spanning-ring
// constructor, as the k = 2 instance of kRC.
func TwoRC() Constructor {
	c, err := KRC(2)
	if err != nil {
		// Unreachable: k = 2 is statically valid.
		panic(err)
	}
	return c
}
