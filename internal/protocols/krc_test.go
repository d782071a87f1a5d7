package protocols

import (
	"testing"

	"repro/internal/core"
)

func TestKRCParameterValidation(t *testing.T) {
	t.Parallel()
	if _, err := KRC(1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KRC(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KRC(200); err == nil {
		t.Fatal("state-budget overflow accepted")
	}
}

func TestKRCStateCount(t *testing.T) {
	t.Parallel()
	for k := 2; k <= 6; k++ {
		c, err := KRC(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Proto.Size(), 2*(k+1); got != want {
			t.Fatalf("k=%d: %d states, paper says %d", k, got, want)
		}
	}
}

func TestTwoRCBuildsSpanningRing(t *testing.T) {
	t.Parallel()
	c := TwoRC()
	for _, n := range []int{3, 5, 8, 12} {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("n=%d seed=%d: no convergence", n, seed)
			}
			if g := ActiveGraph(res.Final); !g.IsSpanningRing() {
				t.Fatalf("n=%d seed=%d: %v not a spanning ring", n, seed, g)
			}
		}
	}
}

// TestKRCTheorem11Guarantee: for k=3 and k=4, the stable network is
// connected and spanning with at least n−k+1 nodes of degree k and the
// low-degree residue within Theorem 11's bounds.
func TestKRCTheorem11Guarantee(t *testing.T) {
	t.Parallel()
	for _, k := range []int{3, 4} {
		k := k
		t.Run(string(rune('0'+k)), func(t *testing.T) {
			t.Parallel()
			c, err := KRC(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{k + 1, k + 3, 2 * (k + 2), 14} {
				for seed := uint64(1); seed <= 2; seed++ {
					res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("k=%d n=%d seed=%d: no convergence", k, n, seed)
					}
					g := ActiveGraph(res.Final)
					if !g.IsNearKRegularConnected(k) {
						t.Fatalf("k=%d n=%d: %v violates Theorem 11", k, n, g)
					}
					atK := 0
					for u := 0; u < n; u++ {
						if g.Degree(u) == k {
							atK++
						}
					}
					if atK < n-k+1 {
						t.Fatalf("k=%d n=%d: only %d nodes at degree k, want ≥ %d", k, n, atK, n-k+1)
					}
				}
			}
		})
	}
}

// TestKRCDegreeStateInvariant: throughout any execution, a node in qᵢ
// or lᵢ has active degree exactly i.
func TestKRCDegreeStateInvariant(t *testing.T) {
	t.Parallel()
	const k = 3
	c, err := KRC(k)
	if err != nil {
		t.Fatal(err)
	}
	degreeOf := func(name string) int {
		// "q2" → 2, "l3" → 3.
		d := 0
		for _, r := range name[1:] {
			d = d*10 + int(r-'0')
		}
		return d
	}
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		for _, node := range []int{u, v} {
			name := c.Proto.StateName(cfg.Node(node))
			if got, want := cfg.Degree(node), degreeOf(name); got != want {
				t.Fatalf("step %d: node %d in %s has degree %d", step, node, name, got)
			}
		}
	})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := core.Run(c.Proto, 10, core.Options{Seed: seed, Detector: c.Detector, Events: obs}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKRCMaxDegreeNeverExceedsK1: the transient l_{k+1} state is the
// only over-degree; no node ever exceeds k+1.
func TestKRCMaxDegreeNeverExceedsK1(t *testing.T) {
	t.Parallel()
	const k = 3
	c, err := KRC(k)
	if err != nil {
		t.Fatal(err)
	}
	obs := observerFunc(func(step int64, u, v int, edgeChanged bool, cfg *core.Config) {
		for _, node := range []int{u, v} {
			if cfg.Degree(node) > k+1 {
				t.Fatalf("step %d: node %d reached degree %d > k+1", step, node, cfg.Degree(node))
			}
		}
	})
	if _, err := core.Run(c.Proto, 12, core.Options{Seed: 6, Detector: c.Detector, Events: obs}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoRCMatchesPaperProtocol6(t *testing.T) {
	t.Parallel()
	c := TwoRC()
	if got := c.Proto.Size(); got != 6 {
		t.Fatalf("2RC has %d states, paper says 6", got)
	}
	// The 2RC instantiation must contain Protocol 6's named rules.
	find := func(name string) core.State {
		s, ok := c.Proto.StateIndex(name)
		if !ok {
			t.Fatalf("missing state %q", name)
		}
		return s
	}
	q0, q1, l1 := find("q0"), find("q1"), find("l1")
	hits := 0
	for _, r := range c.Proto.Rules() {
		if r.A == q0 && r.B == q0 && !r.Edge && r.OutA == q1 && r.OutB == l1 && r.OutEdge {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("(q0,q0,0)→(q1,l1,1) found %d times", hits)
	}
}
