// Package core implements the Network Constructor (NET) model of
// Michail & Spirakis: populations of identical finite-state processes
// that interact in adversarially scheduled pairs and activate or
// deactivate the binary-state edges joining them, until the active
// subgraph stabilizes to a target network.
//
// A protocol is a 4-tuple (Q, q0, Qout, δ) where δ : Q×Q×{0,1} →
// Q×Q×{0,1}. The package provides the protocol representation, the
// configuration (node states plus adjacency words or rows), fair and
// uniform-random schedulers, and an execution engine with convergence
// detection and metrics.
package core

import (
	"errors"
	"fmt"
)

// State is an index into a protocol's state-name table. Protocols in the
// paper use at most a few dozen states, so a byte suffices.
type State uint8

// MaxStates bounds the number of node states a static protocol may use.
const MaxStates = 255

// Rule is a single effective transition (a, b, c) → (a', b', c').
// Ineffective transitions (identity) are implicit and never listed,
// matching the paper's presentation convention.
//
// A rule may carry an alternative outcome taken with probability 1/2,
// which models the PREL extension of the paper (Definition 4): the
// weakest probabilistic version in which an interacting pair may toss
// one fair coin.
type Rule struct {
	A, B State // matched node states (unordered per the symmetry convention)
	Edge bool  // matched edge state

	OutA, OutB State // new node states
	OutEdge    bool  // new edge state

	// Alt, when set, makes the rule probabilistic: with probability 1/2
	// the Out* triple applies, otherwise the Alt* triple.
	Alt     bool
	AltA    State
	AltB    State
	AltEdge bool
}

// Effective reports whether the rule changes anything when its primary
// outcome fires.
func (r Rule) Effective() bool {
	return r.OutA != r.A || r.OutB != r.B || r.OutEdge != r.Edge
}

// entry is one compiled δ lookup cell for an ordered (a, b, edge) triple.
type entry struct {
	outA, outB State
	altA, altB State
	outEdge    bool
	altEdge    bool
	effective  bool
	alt        bool
	// coin is set when a == b but outA != outB: the engine must assign
	// the two distinct outcomes equiprobably, the single symmetry-
	// breaking coin the model grants (Section 3.1).
	coin bool
}

// Protocol is a compiled network constructor.
//
// Construct with NewProtocol; the zero value is not usable.
type Protocol struct {
	name    string
	states  []string
	initial State
	output  []bool // per-state output membership (Qout)
	rules   []Rule
	table   []entry // dense δ: index (a*|Q|+b)*2 + edgeBit
}

// NewProtocol compiles a protocol from its state-name table, initial
// state, output set and effective rules.
//
// Per Definition 1, δ must be defined at (a, a, c) for all a and at
// exactly one of (a, b, c) / (b, a, c) for a ≠ b. Listing both
// orientations of the same unordered triple is rejected; unlisted
// triples compile to ineffective identity transitions.
//
// qout lists the output states Qout; nil means every state is an output
// state (the common case in the paper).
func NewProtocol(name string, states []string, initial State, qout []State, rules []Rule) (*Protocol, error) {
	q := len(states)
	switch {
	case name == "":
		return nil, errors.New("core: protocol name must be non-empty")
	case q == 0:
		return nil, errors.New("core: protocol needs at least one state")
	case q > MaxStates:
		return nil, fmt.Errorf("core: %d states exceeds the maximum of %d", q, MaxStates)
	case int(initial) >= q:
		return nil, fmt.Errorf("core: initial state %d out of range [0,%d)", initial, q)
	}
	seen := make(map[string]bool, q)
	for i, s := range states {
		if s == "" {
			return nil, fmt.Errorf("core: state %d has an empty name", i)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: duplicate state name %q", s)
		}
		seen[s] = true
	}

	output := make([]bool, q)
	if qout == nil {
		for i := range output {
			output[i] = true
		}
	} else {
		for _, s := range qout {
			if int(s) >= q {
				return nil, fmt.Errorf("core: output state %d out of range [0,%d)", s, q)
			}
			output[s] = true
		}
	}

	p := &Protocol{
		name:    name,
		states:  states,
		initial: initial,
		output:  output,
		rules:   make([]Rule, len(rules)),
		table:   make([]entry, q*q*2),
	}
	copy(p.rules, rules)

	// Identity-fill.
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			for e := 0; e < 2; e++ {
				p.table[(a*q+b)*2+e] = entry{
					outA:    State(a),
					outB:    State(b),
					outEdge: e == 1,
				}
			}
		}
	}

	defined := make(map[[3]int]bool, len(rules))
	for i, r := range rules {
		if int(r.A) >= q || int(r.B) >= q || int(r.OutA) >= q || int(r.OutB) >= q {
			return nil, fmt.Errorf("core: rule %d references a state out of range", i)
		}
		if r.Alt && (int(r.AltA) >= q || int(r.AltB) >= q) {
			return nil, fmt.Errorf("core: rule %d alt outcome references a state out of range", i)
		}
		key := [3]int{int(r.A), int(r.B), boolToInt(r.Edge)}
		mirror := [3]int{int(r.B), int(r.A), boolToInt(r.Edge)}
		if defined[key] {
			return nil, fmt.Errorf("core: rule %d redefines δ(%s, %s, %v)", i, states[r.A], states[r.B], r.Edge)
		}
		if r.A != r.B && defined[mirror] {
			return nil, fmt.Errorf("core: rule %d defines δ(%s, %s, %v) whose mirror orientation is already defined", i, states[r.A], states[r.B], r.Edge)
		}
		defined[key] = true

		e := entry{
			outA:      r.OutA,
			outB:      r.OutB,
			outEdge:   r.OutEdge,
			effective: r.Effective() || r.Alt,
			alt:       r.Alt,
			altA:      r.AltA,
			altB:      r.AltB,
			altEdge:   r.AltEdge,
			coin:      r.A == r.B && r.OutA != r.OutB,
		}
		p.table[(int(r.A)*q+int(r.B))*2+boolToInt(r.Edge)] = e
		if r.A != r.B {
			// Mirror orientation: swap roles.
			m := entry{
				outA:      r.OutB,
				outB:      r.OutA,
				outEdge:   r.OutEdge,
				effective: e.effective,
				alt:       r.Alt,
				altA:      r.AltB,
				altB:      r.AltA,
				altEdge:   r.AltEdge,
			}
			p.table[(int(r.B)*q+int(r.A))*2+boolToInt(r.Edge)] = m
		}
	}
	return p, nil
}

// MustProtocol is NewProtocol for statically known-good protocol
// definitions; it panics on error. Intended for package-level protocol
// constructors whose rule lists are fixed at compile time.
func MustProtocol(name string, states []string, initial State, qout []State, rules []Rule) *Protocol {
	p, err := NewProtocol(name, states, initial, qout, rules)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the protocol's name.
func (p *Protocol) Name() string { return p.name }

// Size returns |Q|, the number of node states — the paper's measure of
// protocol size.
func (p *Protocol) Size() int { return len(p.states) }

// Initial returns q0.
func (p *Protocol) Initial() State { return p.initial }

// States returns a copy of the state-name table.
func (p *Protocol) States() []string {
	out := make([]string, len(p.states))
	copy(out, p.states)
	return out
}

// StateName returns the name of s, or a numeric placeholder if out of
// range.
func (p *Protocol) StateName(s State) string {
	if int(s) < len(p.states) {
		return p.states[s]
	}
	return fmt.Sprintf("state#%d", s)
}

// StateIndex returns the index of the named state.
func (p *Protocol) StateIndex(name string) (State, bool) {
	for i, s := range p.states {
		if s == name {
			return State(i), true
		}
	}
	return 0, false
}

// IsOutput reports whether s ∈ Qout.
func (p *Protocol) IsOutput(s State) bool {
	return int(s) < len(p.output) && p.output[s]
}

// Rules returns a copy of the protocol's effective rules.
func (p *Protocol) Rules() []Rule {
	out := make([]Rule, len(p.rules))
	copy(out, p.rules)
	return out
}

// Randomized reports whether any rule carries a probability-1/2
// alternative outcome, i.e. whether the protocol needs the PREL
// extension.
func (p *Protocol) Randomized() bool {
	for _, r := range p.rules {
		if r.Alt {
			return true
		}
	}
	return false
}

// Batchable reports whether some interaction outcome of the protocol
// can leave the state-class census unchanged: a deterministic state
// swap across a preserved edge state ((a, b, e) → (b, a, e) with
// a ≠ b — the random-walk workhorse of Simple-Global-Line), or any
// probabilistic rule (whose coin may select an identity or
// census-preserving branch). The batch engine can only reveal swap
// runs inside census-frozen stretches, and only batchable protocols
// ever produce one — so Run turns swap runs off for
// non-batchable protocols and steps them exactly, which keeps them
// bit-identical to the sparse engine by construction.
func (p *Protocol) Batchable() bool {
	q := len(p.states)
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			for _, edge := range []bool{false, true} {
				e := p.lookup(State(a), State(b), edge)
				if !e.effective {
					continue
				}
				if e.alt {
					return true
				}
				if a != b && e.outA == State(b) && e.outB == State(a) && e.outEdge == edge {
					return true
				}
			}
		}
	}
	return false
}

// lookup returns the compiled entry for the ordered triple.
func (p *Protocol) lookup(a, b State, edge bool) entry {
	return p.table[(int(a)*len(p.states)+int(b))*2+boolToInt(edge)]
}

// Outcome is one possible result of an interaction, used by exhaustive
// state-space exploration. Probabilistic rules and symmetry-breaking
// coins yield several outcomes per interaction.
type Outcome struct {
	OutA, OutB State
	OutEdge    bool
}

// Outcomes enumerates every possible result of an interaction between
// ordered states (a, b) over the given edge state: the primary outcome,
// the probability-1/2 alternative if present, and the coin-swapped
// orientations when the rule must break symmetry between equal states.
// Ineffective interactions return nil.
func (p *Protocol) Outcomes(a, b State, edge bool) []Outcome {
	e := p.lookup(a, b, edge)
	if !e.effective {
		return nil
	}
	var outs []Outcome
	appendBranch := func(oa, ob State, oe bool) {
		branch := Outcome{OutA: oa, OutB: ob, OutEdge: oe}
		for _, seen := range outs {
			if seen == branch {
				return
			}
		}
		outs = append(outs, branch)
	}
	appendBranch(e.outA, e.outB, e.outEdge)
	if a == b && e.outA != e.outB {
		appendBranch(e.outB, e.outA, e.outEdge)
	}
	if e.alt {
		appendBranch(e.altA, e.altB, e.altEdge)
		if a == b && e.altA != e.altB {
			appendBranch(e.altB, e.altA, e.altEdge)
		}
	}
	// Drop identity branches a probabilistic rule may contain.
	filtered := outs[:0]
	for _, o := range outs {
		if o.OutA != a || o.OutB != b || o.OutEdge != edge {
			filtered = append(filtered, o)
		}
	}
	return filtered
}

// EffectiveOn reports whether δ has an effective transition for the
// unordered pair of states under the given edge state.
func (p *Protocol) EffectiveOn(a, b State, edge bool) bool {
	return p.lookup(a, b, edge).effective
}

// EdgeEffectiveOn reports whether an applicable transition would (or,
// for probabilistic rules, could) change the edge state.
func (p *Protocol) EdgeEffectiveOn(a, b State, edge bool) bool {
	e := p.lookup(a, b, edge)
	if !e.effective {
		return false
	}
	return e.outEdge != edge || (e.alt && e.altEdge != edge)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
