package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Topology is an immutable set of permitted interaction pairs — a
// restricted interaction graph over the population. The paper assumes
// the complete interaction graph (any pair may be scheduled); a
// Topology replaces it with geometry or degree constraints, the
// configurable-topology axis of the NETCS-style simulators.
//
// A nil *Topology everywhere means "complete": every code path treats
// nil as all n(n−1)/2 pairs permitted and executes the pre-topology
// instructions byte for byte, so complete-graph runs are bit-identical
// to a build without this layer (pinned by TestCompleteTopologyBitIdentical).
//
// Under a non-nil Topology, Run restricts the uniform scheduler's draw
// to the permitted pairs, the round-robin and permutation schedulers
// cycle over the permitted pair list, and the indexed engines count
// enabled pairs within the permitted set — the geometric skip law is
// unchanged because the total pair count per draw is still a run
// constant (see ARCHITECTURE.md, "Interaction topology").
type Topology struct {
	n     int
	pairs []uint64  // packed u<<32|v with u < v, sorted ascending
	adj   [][]int32 // per-node permitted neighbors, sorted ascending
}

// NewTopology builds a Topology whose permitted pairs are exactly the
// edges of the simple graph g. O(n + m).
func NewTopology(g *graph.Graph) *Topology {
	n := g.N()
	t := &Topology{
		n:     n,
		pairs: make([]uint64, 0, g.M()),
		adj:   make([][]int32, n),
	}
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(u)
		lst := make([]int32, 0, len(nbrs))
		for _, v := range nbrs {
			lst = append(lst, int32(v))
			if u < v {
				t.pairs = append(t.pairs, uint64(u)<<32|uint64(v))
			}
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		t.adj[u] = lst
	}
	sort.Slice(t.pairs, func(i, j int) bool { return t.pairs[i] < t.pairs[j] })
	return t
}

// N returns the population size the topology was built for.
func (t *Topology) N() int { return t.n }

// PairCount returns the number of permitted pairs.
func (t *Topology) PairCount() int { return len(t.pairs) }

// PairAt returns the i-th permitted pair in the canonical (sorted)
// order, with u < v.
func (t *Topology) PairAt(i int) (u, v int) {
	p := t.pairs[i]
	return int(p >> 32), int(p & 0xffffffff)
}

// Degree returns the number of permitted pairs incident to u.
func (t *Topology) Degree(u int) int { return len(t.adj[u]) }

// Contains reports whether {u, v} is a permitted pair: a binary search
// of the smaller endpoint adjacency, O(log deg).
func (t *Topology) Contains(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= t.n || v >= t.n {
		return false
	}
	lst := t.adj[u]
	if other := t.adj[v]; len(other) < len(lst) {
		lst, v = other, u
	}
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

// SamplePair returns a uniformly random permitted pair in random
// orientation — the restricted counterpart of RNG.Pair. It must not be
// called when PairCount is zero.
func (t *Topology) SamplePair(rng *RNG) (u, v int) {
	p := t.pairs[rng.IntN(len(t.pairs))]
	u, v = int(p>>32), int(p&0xffffffff)
	if rng.Coin() {
		u, v = v, u
	}
	return u, v
}

// Topology kinds understood by TopologySpec.
const (
	TopoComplete = "complete"
	TopoGnp      = "gnp"
	TopoRGG      = "rgg"
	TopoCM       = "cm"
)

// TopologySpec is the declarative form of a Topology: the value that
// travels through campaign specs, CLI flags, and spec hashes, realized
// into a concrete Topology per run. The flag/JSON syntax mirrors the
// fault-plan syntax ("kind@param"):
//
//	complete    the full interaction graph (builds to a nil *Topology)
//	gnp@0.05    G(n, p) with edge probability 0.05
//	rgg@0.1     random geometric graph, connection radius 0.1
//	cm@4        configuration model, every node degree 4
//
// A nil *TopologySpec means complete.
type TopologySpec struct {
	// Kind is one of TopoComplete, TopoGnp, TopoRGG, TopoCM.
	Kind string
	// Param is the model parameter (edge probability, radius, or uniform
	// degree); unused for complete.
	Param float64
}

// ParseTopologySpec parses the flag form. The empty string means
// complete and parses to nil.
func ParseTopologySpec(s string) (*TopologySpec, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == TopoComplete {
		if s == TopoComplete {
			return &TopologySpec{Kind: TopoComplete}, nil
		}
		return nil, nil
	}
	kind, param, ok := strings.Cut(s, "@")
	if !ok {
		return nil, fmt.Errorf("core: topology %q: want \"complete\" or \"kind@param\" (gnp@0.05, rgg@0.1, cm@4)", s)
	}
	p, err := strconv.ParseFloat(param, 64)
	if err != nil {
		return nil, fmt.Errorf("core: topology %q: bad parameter %q: %v", s, param, err)
	}
	switch kind {
	case TopoGnp, TopoRGG, TopoCM:
		return &TopologySpec{Kind: kind, Param: p}, nil
	default:
		return nil, fmt.Errorf("core: unknown topology kind %q (known: complete, gnp, rgg, cm)", kind)
	}
}

// String renders the spec back into its flag form; a nil spec renders
// as "complete".
func (ts *TopologySpec) String() string {
	if ts == nil || ts.Kind == "" || ts.Kind == TopoComplete {
		return TopoComplete
	}
	return ts.Kind + "@" + strconv.FormatFloat(ts.Param, 'g', -1, 64)
}

// Label is the record/aggregate label: empty for the complete graph
// (matching the records written before the topology layer existed),
// the flag form otherwise.
func (ts *TopologySpec) Label() string {
	if ts == nil || ts.Kind == "" || ts.Kind == TopoComplete {
		return ""
	}
	return ts.String()
}

// MarshalText implements encoding.TextMarshaler so the spec appears in
// JSON as its flag form.
func (ts *TopologySpec) MarshalText() ([]byte, error) {
	return []byte(ts.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler; the flag syntax
// and the JSON "topology" field accept the same forms.
func (ts *TopologySpec) UnmarshalText(text []byte) error {
	parsed, err := ParseTopologySpec(string(text))
	if err != nil {
		return err
	}
	if parsed == nil {
		parsed = &TopologySpec{Kind: TopoComplete}
	}
	*ts = *parsed
	return nil
}

// Validate checks the spec parameters against a population size without
// building anything, so spec compilers can reject a bad grid before any
// trial runs.
func (ts *TopologySpec) Validate(n int) error {
	if ts == nil {
		return nil
	}
	switch ts.Kind {
	case "", TopoComplete:
		return nil
	// The range checks are written so that NaN fails them.
	case TopoGnp:
		if !(ts.Param >= 0 && ts.Param <= 1) {
			return fmt.Errorf("core: topology gnp: edge probability %g outside [0, 1]", ts.Param)
		}
	case TopoRGG:
		if !(ts.Param > 0) || math.IsInf(ts.Param, 1) {
			return fmt.Errorf("core: topology rgg: radius %g must be positive and finite", ts.Param)
		}
	case TopoCM:
		d := ts.Param
		if !(d >= 0) || d != math.Trunc(d) {
			return fmt.Errorf("core: topology cm: degree %g must be a non-negative integer", d)
		}
		// Compared as a float: converting +Inf or a huge degree to int
		// is undefined.
		if d > float64(n-1) {
			return fmt.Errorf("core: topology cm: degree %g exceeds n−1 = %d", d, n-1)
		}
		if n*int(d)%2 != 0 {
			return fmt.Errorf("core: topology cm: n·d = %d·%d is odd, so no realization exists", n, int(d))
		}
	default:
		return fmt.Errorf("core: unknown topology kind %q (known: complete, gnp, rgg, cm)", ts.Kind)
	}
	return nil
}

// Build realizes the spec into a concrete Topology on n nodes from the
// given seed. Complete (and nil) specs build to a nil *Topology, so the
// complete path through the engines is exactly the pre-topology one.
func (ts *TopologySpec) Build(n int, seed uint64) (*Topology, error) {
	if ts == nil || ts.Kind == "" || ts.Kind == TopoComplete {
		return nil, nil
	}
	if err := ts.Validate(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	var g *graph.Graph
	switch ts.Kind {
	case TopoGnp:
		g = graph.Gnp(n, ts.Param, rng)
	case TopoRGG:
		g = graph.RandomGeometric(n, ts.Param, rng)
	case TopoCM:
		degs := make([]int, n)
		for i := range degs {
			degs[i] = int(ts.Param)
		}
		var err error
		g, err = graph.ConfigurationModel(degs, rng)
		if err != nil {
			return nil, err
		}
	}
	return NewTopology(g), nil
}

// Realize builds the per-run topology for a trial with the given run
// seed. The realization stream is decorrelated from both the protocol
// RNG (seeded with the raw run seed) and the fault-injection stream
// (which mixes with different constants — see scenario.Prepared) by a
// SplitMix-style scramble, so topology, faults, and protocol draws are
// independent even though all three derive from one run seed.
func (ts *TopologySpec) Realize(n int, runSeed uint64) (*Topology, error) {
	if ts == nil {
		return nil, nil
	}
	mix := (runSeed + 0x9e3779b97f4a7c15) * 0xd1342543de82ef95
	return ts.Build(n, mix^0x94d049bb133111eb)
}
