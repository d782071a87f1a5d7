package protocols

import "repro/internal/core"

// Global-Ring state indices (Protocol 5, the corrected journal
// version). The primed states mark the blocked endpoints of a closed
// cycle; double-primed states record that another component has been
// detected, which forces the cycle open again.
const (
	grQ0 core.State = iota
	grQ1
	grQ2
	grL
	grW
	grLp   // l′
	grLpp  // l″
	grQ2p  // q2′
	grQ2pp // q2″
	grLbar // l̄ — leader of a line of one edge, barred from closing
)

// GlobalRing returns Protocol 5, the spanning-ring constructor built on
// Simple-Global-Line: a line's endpoints may close into a cycle, and a
// closed cycle reopens whenever one of its blocked endpoints detects a
// node outside the component (Theorem 9).
//
// Note: the paper's Table 2 counts 9 states but the protocol as listed
// uses 10; we implement the listed protocol (see EXPERIMENTS.md).
func GlobalRing() Constructor {
	rules := []core.Rule{
		// Normal behavior begins only after a line has length 2 edges:
		// the leader of a 1-edge line is the barred l̄.
		{A: grQ0, B: grQ0, Edge: false, OutA: grQ1, OutB: grLbar, OutEdge: true},
		{A: grL, B: grQ0, Edge: false, OutA: grQ2, OutB: grL, OutEdge: true},
		{A: grLbar, B: grQ0, Edge: false, OutA: grQ2, OutB: grL, OutEdge: true},

		// Merging: the random walk of a w-leader begins.
		{A: grL, B: grL, Edge: false, OutA: grQ2, OutB: grW, OutEdge: true},
		{A: grL, B: grLbar, Edge: false, OutA: grQ2, OutB: grW, OutEdge: true},
		{A: grLbar, B: grLbar, Edge: false, OutA: grQ2, OutB: grW, OutEdge: true},
		{A: grW, B: grQ2, Edge: true, OutA: grQ2, OutB: grW, OutEdge: true},
		{A: grW, B: grQ1, Edge: true, OutA: grQ2, OutB: grL, OutEdge: true},

		// l connecting to a q1 endpoint, possibly closing its own line
		// into a cycle; both endpoints become blocked.
		{A: grL, B: grQ1, Edge: false, OutA: grLp, OutB: grQ2p, OutEdge: true},

		// Another component detected: a closed cycle must open. A
		// blocked endpoint meeting any unblocked state over an
		// inactive edge becomes double-primed.
		{A: grLp, B: grL, Edge: false, OutA: grLpp, OutB: grL, OutEdge: false},
		{A: grLp, B: grLbar, Edge: false, OutA: grLpp, OutB: grLbar, OutEdge: false},
		{A: grLp, B: grW, Edge: false, OutA: grLpp, OutB: grW, OutEdge: false},
		{A: grLp, B: grQ1, Edge: false, OutA: grLpp, OutB: grQ1, OutEdge: false},
		{A: grLp, B: grQ0, Edge: false, OutA: grLpp, OutB: grQ0, OutEdge: false},
		{A: grQ2p, B: grL, Edge: false, OutA: grQ2pp, OutB: grL, OutEdge: false},
		{A: grQ2p, B: grLbar, Edge: false, OutA: grQ2pp, OutB: grLbar, OutEdge: false},
		{A: grQ2p, B: grW, Edge: false, OutA: grQ2pp, OutB: grW, OutEdge: false},
		{A: grQ2p, B: grQ1, Edge: false, OutA: grQ2pp, OutB: grQ1, OutEdge: false},
		{A: grQ2p, B: grQ0, Edge: false, OutA: grQ2pp, OutB: grQ0, OutEdge: false},
		{A: grLp, B: grLp, Edge: false, OutA: grLpp, OutB: grLpp, OutEdge: false},
		{A: grLp, B: grQ2p, Edge: false, OutA: grLpp, OutB: grQ2pp, OutEdge: false},
		{A: grQ2p, B: grQ2p, Edge: false, OutA: grQ2pp, OutB: grQ2pp, OutEdge: false},

		// Opening closed cycles: the blocked pair backtracks.
		{A: grLpp, B: grQ2p, Edge: true, OutA: grL, OutB: grQ1, OutEdge: false},
		{A: grLp, B: grQ2pp, Edge: true, OutA: grL, OutB: grQ1, OutEdge: false},
		{A: grLpp, B: grQ2pp, Edge: true, OutA: grL, OutB: grQ1, OutEdge: false},
	}
	p := core.MustProtocol(
		"Global-Ring",
		[]string{"q0", "q1", "q2", "l", "w", "l'", "l''", "q2'", "q2''", "lbar"},
		grQ0,
		nil,
		rules,
	)
	// Stable: the whole population is one closed cycle — one l′, one
	// q2′ and n−2 plain q2 nodes. With no node outside the component
	// the blocked pair can never detect anything, so the configuration
	// is quiescent.
	det := core.Detector{
		Trigger: core.TriggerEdge,
		Stable: func(cfg *core.Config) bool {
			if cfg.N() < 3 {
				return false
			}
			if cfg.Count(grLp) != 1 || cfg.Count(grQ2p) != 1 || cfg.Count(grQ2) != cfg.N()-2 {
				return false
			}
			return ActiveGraph(cfg).IsSpanningRing()
		},
	}
	return Constructor{Proto: p, Detector: det, Target: "spanning ring", Theta: "(Ω(n²) LB)"}
}
