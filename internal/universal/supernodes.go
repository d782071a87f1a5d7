package universal

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// SupernodeResult reports a Theorem 18 run: the population organized
// into K named lines ("supernodes") of LineLen nodes each — enough
// local memory for each supernode to hold a unique ⌈log K⌉-bit name.
type SupernodeResult struct {
	// K is the number of supernodes (a power of two, the largest with
	// K·log₂K ≤ n).
	K int
	// LineLen is each supernode's length, log₂ K.
	LineLen int
	// Names maps each supernode to its unique binary name (0..K−1).
	Names []int
	// Lines lists each supernode's population node indices in line
	// order.
	Lines [][]int
	// Waste is n − K·LineLen.
	Waste int
	// Phases counts the interactions: the real leader-election run
	// plus the charged waits of every later phase.
	Phases
	// SupernodeGraph is the network built at the supernode abstraction
	// layer by the triangle application (edges between supernode
	// representatives).
	SupernodeGraph *graph.Graph
	// Triangles is the number of complete triangles formed, ⌊K/3⌋.
	Triangles int
}

// Supernode-election state indices.
const (
	seL0 core.State = iota
	seL
	seQ0
)

// electionProtocol is the Theorem 18 opening move: all nodes start as
// candidate leaders l0 and pairwise meetings demote: (l0,l0,0) →
// (l,q0,0); surviving l leaders also eliminate each other and absorb
// stray candidates, leaving one l and n−1 free q0 nodes. (The paper's
// full construction reverts a defeated leader's partial component
// node-by-node; this phase-level model omits the reversion, whose cost
// is dominated by the Θ(n²) election itself: the last two leaders alone
// meet after C(n, 2) expected steps.)
func electionProtocol() (*core.Protocol, core.Detector) {
	p := core.MustProtocol(
		"Supernode-Election",
		[]string{"l0", "l", "q0"},
		seL0,
		nil,
		[]core.Rule{
			{A: seL0, B: seL0, Edge: false, OutA: seL, OutB: seQ0},
			{A: seL, B: seL0, Edge: false, OutA: seL, OutB: seQ0},
			{A: seL, B: seL, Edge: false, OutA: seL, OutB: seQ0},
		},
	)
	det := core.Detector{
		Trigger: core.TriggerEffective,
		Stable: func(cfg *core.Config) bool {
			return cfg.Count(seL0) == 0 && cfg.Count(seL) == 1
		},
	}
	return p, det
}

// Supernodes organizes n nodes into the largest possible set of named
// supernodes per Theorem 18, then runs the paper's triangle
// application at the supernode layer ("each supernode with id i
// connects to id i+2 if i ≡ 0 (mod 3), otherwise to id i−1").
func Supernodes(n int, seed uint64) (*SupernodeResult, error) {
	if n < 8 {
		return nil, errPopulationTooSmall
	}

	res := &SupernodeResult{}

	// Phase 0: leader election (real run).
	p, det := electionProtocol()
	r, err := core.Run(p, n, core.Options{Seed: seed, Detector: det})
	if err != nil {
		return nil, err
	}
	if !r.Converged {
		return nil, fmt.Errorf("universal: supernode leader election did not converge")
	}
	res.record("leader-election", r.Steps)

	rng := core.NewRNG(seed ^ 0x94d049bb133111eb)
	charge := newChargeModel(n, rng)

	// Phase 1: the leader assembles the bootstrap structure — 4 lines
	// of length 2 with their left endpoints attached to the leader's
	// line — consuming 8 nodes. Each attachment waits for an
	// interaction with any currently isolated node.
	isolated := n - 8
	for i := 0; i < 8; i++ {
		charge.waitAny(isolated + (8 - i))
	}
	lines := 4
	length := 2
	res.record("bootstrap", charge.Steps())

	// Growth phases (Increment existing lines / Create new lines): a
	// phase j takes 2^{j−1} lines of length j−1 to 2^j lines of length
	// j. Run while the population can supply the nodes.
	before := charge.Steps()
	for {
		nextLines := lines * 2
		nextLen := length + 1
		if nextLines*nextLen > n {
			break
		}
		// The phase starts when the leader extends its own line. It
		// then increments the other r−1 existing lines, and creates r
		// new lines of length nextLen node by node. Each of these
		// nodes is attached by an interaction with any isolated node.
		attached := 1 + (lines - 1) + lines*nextLen
		for i := 0; i < attached; i++ {
			charge.waitAny(isolated)
			isolated--
		}
		// The specific-pair waits between the attachments: a visit
		// along the left-endpoint star and a return for each
		// incremented line; for each created node, an advance of the
		// boundary mark that measures the new line's length along the
		// leader's line; and a naming pass over each new line that
		// writes its binary name into its cells.
		charge.waits(int64(2*(lines-1) + 2*lines*nextLen))
		lines = nextLines
		length = nextLen
	}
	res.record("growth-phases", charge.Steps()-before)

	res.K = lines
	res.LineLen = length
	res.Waste = n - lines*length

	// Materialize the supernode layout: node ids are assigned in
	// construction order (leader's line first).
	res.Lines = make([][]int, lines)
	res.Names = make([]int, lines)
	id := 0
	for i := 0; i < lines; i++ {
		res.Names[i] = i
		line := make([]int, length)
		for c := 0; c < length; c++ {
			line[c] = id
			id++
		}
		res.Lines[i] = line
	}

	// Application: triangle partition at the supernode layer. Each
	// edge requires the two representatives' interaction.
	before = charge.Steps()
	sg := graph.New(lines)
	for i := 0; i < lines; i++ {
		switch {
		case i%3 == 0 && i+2 < lines:
			sg.AddEdge(i, i+2)
		case i%3 != 0:
			sg.AddEdge(i, i-1)
		}
	}
	charge.waits(int64(sg.M()))
	res.record("triangle-application", charge.Steps()-before)
	res.SupernodeGraph = sg
	for _, comp := range sg.Components() {
		if len(comp) == 3 {
			sub, _ := sg.InducedSubgraph(comp)
			if sub.M() == 3 {
				res.Triangles++
			}
		}
	}
	return res, nil
}
