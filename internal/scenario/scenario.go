// Package scenario is the fault-injection layer on top of the
// execution engines: declarative fault plans — crash faults,
// adversarial edge deletions and state resets, each triggered by step
// schedules or per-step rates — compile into core.Injector event
// sources that fire at identical step positions on the baseline and
// indexed paths. Together with the alternative schedulers in
// internal/core it opens the workload class studied by the
// fault-tolerant network constructor literature (Michail, Spirakis &
// Theofilatos 2019): what do the paper's protocols build when nodes
// die and edges are severed mid-run?
//
// Fault semantics follow that literature:
//
//   - a crash (KindCrash) removes a node: its incident active edges
//     deactivate and its state moves to a synthetic sink appended by
//     Crashable that no rule mentions and that lies outside Qout, so
//     the node never interacts effectively again and leaves the output
//     graph. Survivors do not notice — their states still claim the old
//     degree, exactly the inconsistency crash faults cause in the model;
//   - an edge deletion (KindEdge) deactivates one uniformly random
//     active edge, endpoints unnotified;
//   - a reset (KindReset) wipes one random alive node's memory back to
//     the initial state q0, keeping its edges (a transient fault).
//
// All fault randomness (arrival times of rate-triggered events, victim
// choices) draws from a dedicated stream seeded from the plan seed and
// the run seed, decorrelated from the protocol's own coin flips.
package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Kind names a fault type.
type Kind string

// Fault kinds.
const (
	// KindCrash removes a random alive node and its incident edges.
	KindCrash Kind = "crash"
	// KindEdge deletes a uniformly random active edge.
	KindEdge Kind = "edge"
	// KindReset resets a random alive node's state to the initial q0.
	KindReset Kind = "reset"
)

// Fault is one fault source of a plan: a kind plus either a step
// schedule (fire once, after exactly Step interactions) or a rate
// (fire independently each step with probability Rate, i.e. geometric
// inter-arrival times), hitting Count victims per firing.
type Fault struct {
	Kind Kind `json:"kind"`
	// Step schedules a single firing after exactly Step ≥ 1
	// interactions. Mutually exclusive with Rate.
	Step int64 `json:"step,omitempty"`
	// Rate triggers firings independently each step with probability
	// Rate ∈ (0, 1). Mutually exclusive with Step.
	Rate float64 `json:"rate,omitempty"`
	// Count is the number of victims per firing; 0 means 1.
	Count int `json:"count,omitempty"`
}

// FaultPlan is a declarative, JSON-serializable fault scenario — the
// "faults" field of campaign specs and the -faults flag of the CLIs.
type FaultPlan struct {
	// Seed decorrelates the fault stream across plans; the per-run
	// stream mixes it with the run seed, so equal plans on equal seeds
	// reproduce exactly.
	Seed   uint64  `json:"seed,omitempty"`
	Events []Fault `json:"events"`
}

// Validate checks the plan's events.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if len(p.Events) == 0 {
		return errors.New("scenario: fault plan has no events")
	}
	for i, f := range p.Events {
		switch f.Kind {
		case KindCrash, KindEdge, KindReset:
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %q (known: crash, edge, reset)", i, f.Kind)
		}
		if f.Step != 0 && f.Rate != 0 {
			return fmt.Errorf("scenario: event %d sets both step and rate", i)
		}
		if f.Step < 0 {
			return fmt.Errorf("scenario: event %d has a negative step", i)
		}
		if f.Step == 0 && f.Rate == 0 {
			return fmt.Errorf("scenario: event %d needs a step (≥ 1) or a rate", i)
		}
		if f.Rate != 0 && (f.Rate < 0 || f.Rate >= 1) {
			return fmt.Errorf("scenario: event %d rate %g outside (0, 1)", i, f.Rate)
		}
		if f.Count < 0 {
			return fmt.Errorf("scenario: event %d has a negative count", i)
		}
	}
	return nil
}

// HasCrashes reports whether any event crashes nodes (which requires
// the protocol be augmented with Crashable).
func (p *FaultPlan) HasCrashes() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Events {
		if f.Kind == KindCrash {
			return true
		}
	}
	return false
}

// String renders the plan in the -faults flag syntax:
// "crash@500x2,edge@0.001,reset@1000" (kind@step or kind@rate, with an
// optional xCount). The plan seed is not part of the string form.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, 0, len(p.Events))
	for _, f := range p.Events {
		var b strings.Builder
		b.WriteString(string(f.Kind))
		b.WriteByte('@')
		if f.Rate != 0 {
			b.WriteString(strconv.FormatFloat(f.Rate, 'g', -1, 64))
		} else {
			b.WriteString(strconv.FormatInt(f.Step, 10))
		}
		if f.Count > 1 {
			b.WriteByte('x')
			b.WriteString(strconv.Itoa(f.Count))
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the -faults flag syntax (see String). Numbers
// containing a '.' or an exponent are rates, integers are steps. The
// empty string parses to a nil plan (no faults).
func ParsePlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kindStr, spec, ok := strings.Cut(tok, "@")
		if !ok {
			return nil, fmt.Errorf("scenario: bad fault %q (want kind@step or kind@rate)", tok)
		}
		f := Fault{Kind: Kind(kindStr)}
		if numStr, countStr, hasCount := strings.Cut(spec, "x"); hasCount {
			c, err := strconv.Atoi(countStr)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("scenario: bad fault count in %q", tok)
			}
			f.Count = c
			spec = numStr
		}
		if strings.ContainsAny(spec, ".eE") {
			r, err := strconv.ParseFloat(spec, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad fault rate in %q: %v", tok, err)
			}
			f.Rate = r
		} else {
			st, err := strconv.ParseInt(spec, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario: bad fault step in %q: %v", tok, err)
			}
			f.Step = st
		}
		plan.Events = append(plan.Events, f)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// CrashStateName is the name of the sink state Crashable appends.
const CrashStateName = "dead"

// Crashable returns a copy of p extended with one extra state, the
// crash sink: no rule mentions it (every transition involving it is
// the identity, hence ineffective) and it lies outside Qout. Existing
// state indices are preserved, so detectors and initial-configuration
// builders written against p keep working. The returned State is the
// sink's index.
//
// This is what makes crash faults compose with every engine through
// ordinary incremental index updates: a crash is "incident edges off,
// node state := sink", and the state-class census index already knows
// how to absorb state writes — pairs touching the sink simply never
// enable again.
func Crashable(p *core.Protocol) (*core.Protocol, core.State, error) {
	states := append(p.States(), CrashStateName)
	qout := make([]core.State, 0, p.Size())
	for s := 0; s < p.Size(); s++ {
		if p.IsOutput(core.State(s)) {
			qout = append(qout, core.State(s))
		}
	}
	aug, err := core.NewProtocol(p.Name(), states, p.Initial(), qout, p.Rules())
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: augmenting %q with a crash state: %w", p.Name(), err)
	}
	return aug, core.State(p.Size()), nil
}

// Prepared is a fault plan resolved against a protocol: the protocol
// to actually run (augmented with the crash sink when the plan crashes
// nodes) plus everything needed to mint per-run injectors.
type Prepared struct {
	// Plan is the source plan.
	Plan *FaultPlan
	// Proto is the protocol to pass to core.Run.
	Proto *core.Protocol

	dead    core.State
	hasDead bool
}

// Prepare validates the plan and resolves it against proto.
func (p *FaultPlan) Prepare(proto *core.Protocol) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &Prepared{Plan: p, Proto: proto}
	if p.HasCrashes() {
		aug, dead, err := Crashable(proto)
		if err != nil {
			return nil, err
		}
		pr.Proto, pr.dead, pr.hasDead = aug, dead, true
	}
	return pr, nil
}

// NewInjection mints a fresh per-run injector. Injectors are stateful
// (arrival clocks, the alive set, tallies) and must not be shared
// across runs; runSeed decorrelates trials.
func (pr *Prepared) NewInjection(runSeed uint64) *Injection {
	// SplitMix-style mix keeps the fault stream apart from the run
	// stream (which core.Run seeds with the raw run seed).
	mix := (runSeed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	inj := &Injection{
		rng:     core.NewRNG(mix ^ pr.Plan.Seed),
		dead:    pr.dead,
		hasDead: pr.hasDead,
	}
	for _, f := range pr.Plan.Events {
		src := faultSource{fault: f}
		if f.Rate > 0 {
			src.next = 1 + inj.rng.Geometric(f.Rate)
		} else {
			src.next = f.Step
		}
		inj.sources = append(inj.sources, src)
	}
	return inj
}

// Counts tallies the faults an injection actually applied (a crash or
// reset with no alive victim left, or an edge deletion with no active
// edge, silently no-ops).
type Counts struct {
	Crashes       int64 `json:"crashes,omitempty"`
	EdgeDeletions int64 `json:"edge_deletions,omitempty"`
	Resets        int64 `json:"resets,omitempty"`
}

// Injection is the per-run state of a fault plan: a core.Injector.
type Injection struct {
	sources []faultSource
	rng     *core.RNG
	dead    core.State
	hasDead bool

	// aliveList holds the alive node ids densely (swap-removed on
	// crash) and alivePos each node's slot, so victim draws are O(1)
	// even under high-rate plans on large populations.
	aliveList []int32
	alivePos  []int32
	counts    Counts
	nbuf      []int
}

type faultSource struct {
	fault Fault
	next  int64 // next firing step; 0 = exhausted
}

// NextEvent implements core.Injector.
func (inj *Injection) NextEvent(after int64) int64 {
	next := int64(0)
	for i := range inj.sources {
		n := inj.sources[i].next
		if n == 0 || n <= after {
			continue
		}
		if next == 0 || n < next {
			next = n
		}
	}
	return next
}

// Inject implements core.Injector: it fires every source due at or
// before step.
func (inj *Injection) Inject(step int64, m *core.Mutator) {
	inj.ensureAlive(m)
	for i := range inj.sources {
		src := &inj.sources[i]
		for src.next != 0 && src.next <= step {
			inj.apply(src.fault, m)
			if src.fault.Rate > 0 {
				src.next += 1 + inj.rng.Geometric(src.fault.Rate)
			} else {
				src.next = 0
			}
		}
	}
}

// Counts returns the tally of faults applied so far.
func (inj *Injection) Counts() Counts { return inj.counts }

func (inj *Injection) ensureAlive(m *core.Mutator) {
	if inj.aliveList != nil {
		return
	}
	n := m.Config().N()
	inj.aliveList = make([]int32, n)
	inj.alivePos = make([]int32, n)
	for i := range inj.aliveList {
		inj.aliveList[i] = int32(i)
		inj.alivePos[i] = int32(i)
	}
}

func (inj *Injection) apply(f Fault, m *core.Mutator) {
	count := f.Count
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		switch f.Kind {
		case KindCrash:
			inj.crash(m)
		case KindEdge:
			inj.deleteEdge(m)
		case KindReset:
			inj.reset(m)
		}
	}
}

// pickAlive returns a uniformly random alive node in O(1), −1 when
// none left.
func (inj *Injection) pickAlive() int {
	if len(inj.aliveList) == 0 {
		return -1
	}
	return int(inj.aliveList[inj.rng.IntN(len(inj.aliveList))])
}

func (inj *Injection) crash(m *core.Mutator) {
	if !inj.hasDead {
		return
	}
	u := inj.pickAlive()
	if u < 0 {
		return
	}
	m.Fired(string(KindCrash), u, -1)
	cfg := m.Config()
	inj.nbuf = cfg.ActiveNeighbors(u, inj.nbuf[:0])
	for _, x := range inj.nbuf {
		m.SetEdge(u, x, false)
	}
	m.SetNode(u, inj.dead)
	// Swap-remove u from the alive list.
	slot := inj.alivePos[u]
	last := inj.aliveList[len(inj.aliveList)-1]
	inj.aliveList[slot] = last
	inj.alivePos[last] = slot
	inj.aliveList = inj.aliveList[:len(inj.aliveList)-1]
	inj.counts.Crashes++
}

// deleteEdge deactivates the k-th active edge for a uniform k. The
// edge walk is O(m) — ForEachActiveEdge has no early exit — which is
// fine for the scheduled and moderate-rate plans this layer targets;
// the guard below at least makes the post-match tail free of work.
func (inj *Injection) deleteEdge(m *core.Mutator) {
	cfg := m.Config()
	total := cfg.ActiveEdges()
	if total == 0 {
		return
	}
	k := inj.rng.IntN(total)
	du, dv := -1, -1
	cfg.ForEachActiveEdge(func(u, v int) {
		if du >= 0 {
			return
		}
		if k == 0 {
			du, dv = u, v
		}
		k--
	})
	if du >= 0 {
		m.Fired(string(KindEdge), du, dv)
		m.SetEdge(du, dv, false)
		inj.counts.EdgeDeletions++
	}
}

func (inj *Injection) reset(m *core.Mutator) {
	u := inj.pickAlive()
	if u < 0 {
		return
	}
	m.Fired(string(KindReset), u, -1)
	m.SetNode(u, m.Config().Protocol().Initial())
	inj.counts.Resets++
}
