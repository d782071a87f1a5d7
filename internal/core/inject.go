package core

// Injector is the engine-side hook of the scenario layer: an external
// event source (crash faults, adversarial edge deletions, state
// resets) that mutates the configuration *between* interactions while
// the running engine keeps its incremental structures consistent.
//
// The contract is step-positional so every execution path sees the
// same event sequence: the engine asks NextEvent for the first event
// step strictly after `after` and calls Inject exactly once when the
// run reaches that step — after the step's interaction and stability
// check, mirroring the baseline loop's order. The indexed engines cut
// their geometric skips short at event steps and redraw from the
// post-event enabled count, which preserves the baseline law exactly
// because the geometric distribution is memoryless. Events scheduled
// at or beyond MaxSteps never fire.
//
// Injected mutations are environment events, not protocol steps: they
// advance no step counter, contribute to none of the Result metrics
// (EffectiveSteps, EdgeChanges, ConvergenceTime), and emit no step
// events (an attached sink sees them as fault events instead).
type Injector interface {
	// NextEvent returns the step of the first event strictly after
	// `after`, or 0 when no events remain.
	NextEvent(after int64) int64
	// Inject applies every event scheduled at steps ≤ step. All
	// mutation must go through the Mutator so the engine's index stays
	// consistent.
	Inject(step int64, m *Mutator)
}

// Mutator applies out-of-band configuration mutations on behalf of an
// Injector, keeping the running engine's enabled-pair index
// synchronized: the bit-row index up to 64 nodes, the state-class
// census above (a batch run with an injector always takes the exact
// route). Updates are incremental, never rebuilds: a node write costs
// O(deg + |Q|) on the census and O(|Q|) word operations on bit rows,
// an edge write O(1); the baseline path carries no index and pays
// nothing.
type Mutator struct {
	cfg *Config
	ix  enabledIndex // nil on the baseline path

	// events and ev are the run's event sink and scratch record (both
	// nil when no sink is attached); step is the engine's current step,
	// refreshed before each Inject call so fault events carry their
	// exact position.
	events EventSink
	ev     *Event
	step   int64

	// Fault tallies folded into Result.Metrics at the end of the run.
	// The write counters count mutations actually applied — the setters'
	// no-op early returns don't tally.
	firings    int64
	nodeWrites int64
	edgeWrites int64
}

// Fired reports one fault firing: label names the fault kind and u, v
// the victims (−1 when absent — e.g. a node fault has no v). Injectors
// call it once per firing, before applying the writes it causes, so a
// consumer sees EventFaultFired followed by that firing's
// EventFaultNode / EventFaultEdge records.
func (m *Mutator) Fired(label string, u, v int) {
	m.firings++
	if m.events != nil {
		*m.ev = Event{Kind: EventFaultFired, Step: m.step, Label: label, U: u, V: v, Cfg: m.cfg}
		m.events.Event(m.ev)
	}
}

// fold adds the mutator's fault tallies to mm.
func (m *Mutator) fold(mm *Metrics) {
	mm.FaultFirings += m.firings
	mm.FaultNodeWrites += m.nodeWrites
	mm.FaultEdgeWrites += m.edgeWrites
}

// Config exposes the live configuration for reading (picking victims,
// walking active edges). Mutate only through the Mutator's setters;
// writing to the Config directly desynchronizes the engine's index.
func (m *Mutator) Config() *Config { return m.cfg }

// SetNode overwrites node u's state.
func (m *Mutator) SetNode(u int, s State) {
	before := m.cfg.nodes[u]
	if before == s {
		return
	}
	m.cfg.SetNode(u, s)
	if m.ix != nil {
		m.ix.nodeChanged(u, before)
	}
	m.nodeWrites++
	if m.events != nil {
		*m.ev = Event{Kind: EventFaultNode, Step: m.step, U: u,
			BeforeU: before, AfterU: s, Cfg: m.cfg}
		m.events.Event(m.ev)
	}
}

// SetEdge overwrites the state of edge {u, v}.
func (m *Mutator) SetEdge(u, v int, active bool) {
	if m.cfg.Edge(u, v) == active {
		return
	}
	m.cfg.SetEdge(u, v, active)
	if m.ix != nil {
		m.ix.edgeChanged(u, v)
	}
	m.edgeWrites++
	if m.events != nil {
		*m.ev = Event{Kind: EventFaultEdge, Step: m.step, U: u, V: v,
			EdgeChanged: true, Edge: active, Cfg: m.cfg}
		m.events.Event(m.ev)
	}
}
