package core

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Config is a configuration of the system: the state of every node and
// of every (undirected) edge of the complete interaction graph. It also
// maintains derived aggregates — per-node active degree, per-state
// population counts, and the active-edge count — that convergence
// detectors use as O(1) gates.
//
// Edge states live in one record per node (sparseStore): an adjacency
// word up to 64 nodes, O(1) edge reads and writes; above, a sorted
// adjacency row, O(n + m) memory, O(log deg) edge reads, O(deg) edge
// writes.
type Config struct {
	proto       *Protocol
	n           int
	nodes       []State
	store       sparseStore
	degree      []int32
	counts      []int // population per state
	activeEdges int

	// topo, when non-nil, restricts the interaction graph to its
	// permitted pairs: schedulers draw only permitted pairs and the
	// quiescence scans range over them. Nil means the paper's complete
	// interaction graph. Run assigns it from Options.Topology; it is a
	// shared immutable reference, so clones and copies alias it.
	topo *Topology
}

// NewConfig returns the initial configuration on n nodes: every node in
// q0 and every edge inactive, built in O(n).
func NewConfig(p *Protocol, n int) *Config {
	c := &Config{
		proto:  p,
		n:      n,
		nodes:  make([]State, n),
		store:  newSparseStore(n),
		degree: make([]int32, n),
		counts: make([]int, p.Size()),
	}
	for i := range c.nodes {
		c.nodes[i] = p.initial
	}
	c.counts[p.initial] = n
	return c
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	d := &Config{
		proto:       c.proto,
		n:           c.n,
		nodes:       make([]State, len(c.nodes)),
		store:       c.store.clone(),
		degree:      make([]int32, len(c.degree)),
		counts:      make([]int, len(c.counts)),
		activeEdges: c.activeEdges,
		topo:        c.topo,
	}
	copy(d.nodes, c.nodes)
	copy(d.degree, c.degree)
	copy(d.counts, c.counts)
	return d
}

// resetDefault reinitializes c in place to protocol p's all-q0 initial
// configuration — NewConfig's result without its allocations. The
// population size is unchanged (the workspace reallocates on n
// changes); the protocol may differ from the previous run's.
func (c *Config) resetDefault(p *Protocol) {
	c.proto = p
	for i := range c.nodes {
		c.nodes[i] = p.initial
	}
	c.store.reset()
	for i := range c.degree {
		c.degree[i] = 0
	}
	c.counts = resizeCounts(c.counts, p.Size())
	c.counts[p.initial] = c.n
	c.activeEdges = 0
	c.topo = nil
}

// copyFrom makes c an in-place deep copy of src — Clone's result
// without its allocations. src must have the same population size;
// it may be c itself, in which case the copy is a no-op, which is how
// a run seeded from the workspace's own previous Final works.
func (c *Config) copyFrom(src *Config) {
	c.proto = src.proto
	copy(c.nodes, src.nodes)
	c.store.copyFrom(&src.store)
	copy(c.degree, src.degree)
	// append, not resizeCounts+copy: resizing zeroes in place, which
	// would wipe src.counts first when src aliases the receiver.
	c.counts = append(c.counts[:0], src.counts...)
	c.activeEdges = src.activeEdges
	c.topo = src.topo
}

// resizeCounts returns a zeroed int slice of length size, reusing dst's
// backing array when it is large enough.
func resizeCounts(dst []int, size int) []int {
	if cap(dst) < size {
		return make([]int, size)
	}
	dst = dst[:size]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// Protocol returns the protocol this configuration belongs to.
func (c *Config) Protocol() *Protocol { return c.proto }

// Topology returns the restricted interaction graph the run executes
// under, nil for the complete graph. Custom schedulers must restrict
// their draws to its permitted pairs when it is non-nil.
func (c *Config) Topology() *Topology { return c.topo }

// N returns the population size.
func (c *Config) N() int { return c.n }

// Node returns the state of node u.
func (c *Config) Node(u int) State { return c.nodes[u] }

// SetNode overwrites the state of node u, maintaining counts. It is
// intended for test setups and for protocols with non-uniform initial
// configurations (e.g. Graph-Replication's input graph).
func (c *Config) SetNode(u int, s State) {
	c.counts[c.nodes[u]]--
	c.nodes[u] = s
	c.counts[s]++
}

// Edge reports whether the edge {u, v} is active.
func (c *Config) Edge(u, v int) bool {
	return c.store.get(u, v)
}

// SetEdge overwrites the state of edge {u, v}, maintaining degrees and
// the active-edge count. Like SetNode it is for initial-configuration
// setup.
func (c *Config) SetEdge(u, v int, active bool) {
	if !c.store.set(u, v, active) {
		return
	}
	d := int32(-1)
	if active {
		d = 1
	}
	c.degree[u] += d
	c.degree[v] += d
	c.activeEdges += int(d)
}

// Degree returns the number of active edges incident to u.
func (c *Config) Degree(u int) int { return int(c.degree[u]) }

// Count returns the number of nodes currently in state s.
func (c *Config) Count(s State) int {
	if int(s) >= len(c.counts) {
		return 0
	}
	return c.counts[s]
}

// CountAll copies the per-state population counts into dst (which must
// have length ≥ |Q|) and returns it, allocating if dst is nil.
func (c *Config) CountAll(dst []int) []int {
	if dst == nil {
		dst = make([]int, len(c.counts))
	}
	copy(dst, c.counts)
	return dst
}

// ActiveEdges returns the number of active edges in O(1), from the
// counter maintained by SetEdge and Apply.
func (c *Config) ActiveEdges() int { return c.activeEdges }

// ActiveNeighbors appends the active neighbors of u to dst and returns
// it in ascending order, in O(deg u).
func (c *Config) ActiveNeighbors(u int, dst []int) []int {
	return c.store.neighbors(u, dst)
}

// ForEachActiveEdge visits every active edge once as (u, v) with
// u < v, in lexicographic order, in O(n + m).
func (c *Config) ForEachActiveEdge(fn func(u, v int)) {
	c.store.forEach(fn)
}

// Apply executes one interaction on the unordered pair {u, v} using the
// supplied random source for probabilistic choices. It returns what
// changed so the engine can maintain metrics and trigger detection.
//
// The pair is treated exactly per Section 3.1: the compiled table
// resolves orientation; when both nodes share a state and the outcomes
// differ, the winner is drawn equiprobably.
func (c *Config) Apply(u, v int, rng *RNG) (effective, edgeChanged bool) {
	return c.apply(u, v, c.store.get(u, v), rng)
}

// apply is Apply given the pair's current edge state active, which
// the caller already knows — indexedLoop reads it off the sampled
// cell, so the landing pays no edge probe.
func (c *Config) apply(u, v int, active bool, rng *RNG) (effective, edgeChanged bool) {
	a, b := c.nodes[u], c.nodes[v]
	e := c.proto.lookup(a, b, active)
	if !e.effective {
		return false, false
	}
	outA, outB, outEdge := e.outA, e.outB, e.outEdge
	if e.alt && rng.Coin() {
		outA, outB, outEdge = e.altA, e.altB, e.altEdge
	}
	if e.coin && rng.Coin() {
		outA, outB = outB, outA
	}
	if outA == a && outB == b && outEdge == active {
		// A probabilistic rule may select an ineffective branch.
		return false, false
	}
	if outA != a {
		c.counts[a]--
		c.counts[outA]++
		c.nodes[u] = outA
	}
	if outB != b {
		c.counts[b]--
		c.counts[outB]++
		c.nodes[v] = outB
	}
	if outEdge != active {
		c.store.set(u, v, outEdge)
		d := int32(-1)
		if outEdge {
			d = 1
		}
		c.degree[u] += d
		c.degree[v] += d
		c.activeEdges += int(d)
		edgeChanged = true
	}
	return true, edgeChanged
}

// Quiescent reports whether no effective transition is applicable on
// any pair the scheduler can draw — full quiescence, a sufficient
// condition for stability. O(n²) on the complete graph, O(m) under a
// restricted topology (non-permitted pairs are never scheduled, so
// they cannot break quiescence).
func (c *Config) Quiescent() bool {
	if t := c.topo; t != nil {
		for _, p := range t.pairs {
			u, v := int(p>>32), int(p&0xffffffff)
			if c.proto.EffectiveOn(c.nodes[u], c.nodes[v], c.Edge(u, v)) {
				return false
			}
		}
		return true
	}
	for u := 0; u < c.n; u++ {
		for v := u + 1; v < c.n; v++ {
			if c.proto.EffectiveOn(c.nodes[u], c.nodes[v], c.Edge(u, v)) {
				return false
			}
		}
	}
	return true
}

// EdgeQuiescent reports whether no applicable transition would change
// any edge state. Weaker than Quiescent: node states may still evolve
// (e.g. a leader walking along a stable line). O(n²) on the complete
// graph, O(m) under a restricted topology.
func (c *Config) EdgeQuiescent() bool {
	if t := c.topo; t != nil {
		for _, p := range t.pairs {
			u, v := int(p>>32), int(p&0xffffffff)
			if c.proto.EdgeEffectiveOn(c.nodes[u], c.nodes[v], c.Edge(u, v)) {
				return false
			}
		}
		return true
	}
	for u := 0; u < c.n; u++ {
		for v := u + 1; v < c.n; v++ {
			if c.proto.EdgeEffectiveOn(c.nodes[u], c.nodes[v], c.Edge(u, v)) {
				return false
			}
		}
	}
	return true
}

// Fingerprint returns a canonical byte encoding of the configuration,
// suitable as a map key in exhaustive state-space exploration: one
// byte per node state, then the active edges in ascending pair order,
// each as the uvarint gap from the previous edge's triangular pair
// index (pairIndex + 1 for the first). The encoding is injective among
// configurations of one population size and costs O(n + m).
func (c *Config) Fingerprint() string {
	var sb strings.Builder
	sb.Grow(len(c.nodes) + 2*c.activeEdges)
	for _, s := range c.nodes {
		sb.WriteByte(byte(s))
	}
	var gap [binary.MaxVarintLen64]byte
	prev := -1
	c.store.forEach(func(u, v int) {
		idx := pairIndex(c.n, u, v)
		sb.Write(gap[:binary.PutUvarint(gap[:], uint64(idx-prev))])
		prev = idx
	})
	return sb.String()
}

// String renders the configuration compactly for debugging: node states
// by name and the active edge list.
func (c *Config) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	for u := 0; u < c.n; u++ {
		if u > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(c.proto.StateName(c.nodes[u]))
	}
	sb.WriteString("] {")
	first := true
	c.store.forEach(func(u, v int) {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%d-%d", u, v)
	})
	sb.WriteString("}")
	return sb.String()
}
