package protocols

import (
	"fmt"

	"repro/internal/core"
)

// Simple-Global-Line state indices (Protocol 1).
const (
	sglQ0 core.State = iota
	sglQ1
	sglQ2
	sglL
	sglW
)

// SimpleGlobalLine returns Protocol 1, the 5-state spanning-line
// constructor: lines grow towards isolated nodes and merge endpoint to
// endpoint, after which an internal w-leader random-walks to an
// endpoint before the line may merge again. Expected time Ω(n⁴) and
// O(n⁵) (Theorem 3).
func SimpleGlobalLine() Constructor {
	p := core.MustProtocol(
		"Simple-Global-Line",
		[]string{"q0", "q1", "q2", "l", "w"},
		sglQ0,
		nil,
		[]core.Rule{
			{A: sglQ0, B: sglQ0, Edge: false, OutA: sglQ1, OutB: sglL, OutEdge: true},
			{A: sglL, B: sglQ0, Edge: false, OutA: sglQ2, OutB: sglL, OutEdge: true},
			{A: sglL, B: sglL, Edge: false, OutA: sglQ2, OutB: sglW, OutEdge: true},
			{A: sglW, B: sglQ2, Edge: true, OutA: sglQ2, OutB: sglW, OutEdge: true},
			{A: sglW, B: sglQ1, Edge: true, OutA: sglQ2, OutB: sglL, OutEdge: true},
		},
	)
	// Protocol 1 never deactivates an edge, so "the active graph is a
	// spanning line" is absorbing: once true it can never change (no
	// rule applies that activates further edges — there is no q0 left
	// and a unique leader). Gate on O(1) counts before the O(n) walk.
	det := core.Detector{
		Trigger: core.TriggerEdge,
		Stable: func(cfg *core.Config) bool {
			if cfg.N() == 1 {
				return true
			}
			if cfg.Count(sglQ0) != 0 || cfg.Count(sglL)+cfg.Count(sglW) != 1 {
				return false
			}
			return ActiveGraph(cfg).IsSpanningLine()
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning line", Theta: "Ω(n⁴), O(n⁵)"}
}

// TwoLinesInitial builds Simple-Global-Line's configuration just
// before its last merge: nodes 0…n/2−1 and n/2…n−1 form two lines,
// each with q1 at its outer end, q2 inside and its leader l at the
// inner end, and the two leaders (n/2−1 and n/2) are not yet
// connected. From here one merge makes a w-leader that walks the whole
// line, the regime of the Ω(n⁴) bound. perfbench's sgl-merge workload,
// a module of its own, builds the same configuration (its twoLines);
// the two must stay identical.
func TwoLinesInitial(p *core.Protocol, n int) (*core.Config, error) {
	var st [3]core.State
	for i, name := range []string{"q1", "q2", "l"} {
		var ok bool
		if st[i], ok = p.StateIndex(name); !ok {
			return nil, fmt.Errorf("protocols: %q has no state %s", p.Name(), name)
		}
	}
	q1, q2, l := st[0], st[1], st[2]
	cfg := core.NewConfig(p, n)
	half := n / 2
	for u := 0; u < n; u++ {
		switch u {
		case 0, n - 1:
			cfg.SetNode(u, q1)
		case half - 1, half:
			cfg.SetNode(u, l)
		default:
			cfg.SetNode(u, q2)
		}
		if u+1 < n && u != half-1 {
			cfg.SetEdge(u, u+1, true)
		}
	}
	return cfg, nil
}

// Fast-Global-Line state indices (Protocol 2).
const (
	fglQ0 core.State = iota
	fglQ1
	fglQ2
	fglQ2p // q2′
	fglL
	fglLp  // l′
	fglLpp // l″
	fglF0
	fglF1
)

// FastGlobalLine returns Protocol 2, the 9-state O(n³) spanning-line
// constructor: instead of merging, a winning line steals one node from
// the losing line and puts the loser to sleep (Theorem 4).
func FastGlobalLine() Constructor {
	p := core.MustProtocol(
		"Fast-Global-Line",
		[]string{"q0", "q1", "q2", "q2'", "l", "l'", "l''", "f0", "f1"},
		fglQ0,
		nil,
		[]core.Rule{
			{A: fglQ0, B: fglQ0, Edge: false, OutA: fglQ1, OutB: fglL, OutEdge: true},
			{A: fglL, B: fglQ0, Edge: false, OutA: fglQ2, OutB: fglL, OutEdge: true},
			{A: fglL, B: fglL, Edge: false, OutA: fglQ2p, OutB: fglLp, OutEdge: true},
			{A: fglLp, B: fglQ2, Edge: true, OutA: fglLpp, OutB: fglF1, OutEdge: false},
			{A: fglLp, B: fglQ1, Edge: true, OutA: fglLpp, OutB: fglF0, OutEdge: false},
			{A: fglLpp, B: fglQ2p, Edge: true, OutA: fglL, OutB: fglQ2, OutEdge: true},
			{A: fglL, B: fglF0, Edge: false, OutA: fglQ2, OutB: fglL, OutEdge: true},
			{A: fglL, B: fglF1, Edge: false, OutA: fglQ2p, OutB: fglLp, OutEdge: true},
		},
	)
	// Stable: a unique awake leader l on a spanning line with no
	// in-flight steal (l′/l″/q2′) and no sleeping material (f0/f1).
	// Such configurations are fully quiescent for Protocol 2.
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			if cfg.N() == 1 {
				return true
			}
			if cfg.Count(fglQ0) != 0 || cfg.Count(fglL) != 1 ||
				cfg.Count(fglLp) != 0 || cfg.Count(fglLpp) != 0 ||
				cfg.Count(fglQ2p) != 0 || cfg.Count(fglF0) != 0 || cfg.Count(fglF1) != 0 {
				return false
			}
			return ActiveGraph(cfg).IsSpanningLine()
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning line", Theta: "O(n³)"}
}

// Faster-Global-Line state indices (Protocol 10).
const (
	fstQ0 core.State = iota
	fstQ1
	fstQ2
	fstQ
	fstL
	fstF
)

// FasterGlobalLine returns Protocol 10, the 6-state variant from the
// paper's conclusions: a defeated leader's line dissolves itself node
// by node, releasing free nodes for the surviving leader to absorb.
// The paper reports experimental evidence that it improves on
// Fast-Global-Line; cmd/tables' Section 7 table reproduces that
// comparison.
func FasterGlobalLine() Constructor {
	p := core.MustProtocol(
		"Faster-Global-Line",
		[]string{"q0", "q1", "q2", "q", "l", "f"},
		fstQ0,
		nil,
		[]core.Rule{
			{A: fstQ0, B: fstQ0, Edge: false, OutA: fstQ1, OutB: fstL, OutEdge: true},
			{A: fstL, B: fstQ0, Edge: false, OutA: fstQ2, OutB: fstL, OutEdge: true},
			{A: fstL, B: fstQ, Edge: false, OutA: fstQ2, OutB: fstL, OutEdge: true},
			{A: fstL, B: fstL, Edge: false, OutA: fstL, OutB: fstF, OutEdge: false},
			{A: fstF, B: fstQ2, Edge: true, OutA: fstQ, OutB: fstF, OutEdge: false},
			{A: fstF, B: fstQ1, Edge: true, OutA: fstQ, OutB: fstQ, OutEdge: false},
		},
	)
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			if cfg.N() == 1 {
				return true
			}
			if cfg.Count(fstQ0) != 0 || cfg.Count(fstQ) != 0 ||
				cfg.Count(fstF) != 0 || cfg.Count(fstL) != 1 {
				return false
			}
			return ActiveGraph(cfg).IsSpanningLine()
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning line"}
}

// SpanningNet state indices (Theorem 1's matching upper bound).
const (
	snA core.State = iota
	snB
)

// SpanningNet returns the 2-state protocol from Theorem 1 that
// constructs a spanning network (every node covered by an active edge)
// in Θ(n log n) expected time, matching the generic lower bound: it is
// a node cover that activates the corresponding edge on every
// conversion.
func SpanningNet() Constructor {
	p := core.MustProtocol(
		"Spanning-Net",
		[]string{"a", "b"},
		snA,
		nil,
		[]core.Rule{
			{A: snA, B: snA, Edge: false, OutA: snB, OutB: snB, OutEdge: true},
			{A: snA, B: snB, Edge: false, OutA: snB, OutB: snB, OutEdge: true},
		},
	)
	// Nodes in state a have never interacted and hold no active edges;
	// once no a remains, no rule applies and every node is covered.
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			return cfg.N() == 1 || cfg.Count(snA) == 0
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning network"}
}
