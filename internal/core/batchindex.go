package core

import (
	"fmt"
	"slices"
)

// maxSparseNodes bounds the populations the census index accepts. The
// structure itself is O(n + m + |Q|²), so the cap is practical rather
// than representational: beyond ~2²⁰ nodes the geometric skip
// probabilities m/P fall below 2⁻³⁹ and step budgets stop being
// meaningful long before memory does.
const maxSparseNodes = 1 << 20

// batchIndex is the state-class census index behind the sparse and
// batch engines. Instead of materializing the enabled pairs (Θ(n²) in
// the worst case), it counts them by
// *state class*: a pair's enabledness depends only on the triple
// (state(u), state(v), edge(u,v)), so the enabled-pair count
// decomposes over unordered state classes {q₁, q₂}:
//
//	enabled = Σ_{q₁≤q₂} [ E(q₁,q₂,0)·(P(q₁,q₂) − A(q₁,q₂))
//	                    + E(q₁,q₂,1)·A(q₁,q₂) ]
//
// where E is the protocol's effectiveness table, P(q₁,q₂) the number of
// pairs with those endpoint states (n_{q₁}·n_{q₂}, or C(n_q,2) on the
// diagonal — population counts Config already maintains), and A(q₁,q₂)
// the number of active edges between them. The same decomposition with
// the edge-effectiveness table yields the edge-enabled count.
//
// Costs: O(n + m + |Q|²) to build, O(deg(u) + deg(v) + |Q|) per
// effective step to maintain, O(|Q|²) + O(1) expected to sample a
// uniformly random enabled pair — a class is drawn proportionally to
// its weight, then within the class an active edge is an O(1) list
// draw and a non-edge is drawn by rejection from the per-state node
// lists (see sampleNonEdge). Nothing scales with n².
//
// The bookkeeping is shaped by what the engines read:
//
//   - a census *generation* counter (gen) that bumps exactly when some
//     cached sub-bucket weight changes value, so the batch engine can
//     detect "the landing law is unchanged" in O(1) and keep a
//     revealed swap run alive across landings (see indexedLoop);
//   - edge *lists* only for the classes the sampler can ever draw an
//     edge from (mask bit effEdge — for Simple-Global-Line that is the
//     handful of walker/leader classes, a few edges each, while the
//     huge inert {q₂,q₂} bulk keeps only a counter). A per-node mirror
//     holds (other, slot) for listed-class edges only, two entries
//     inline in a 16-byte record per node and a spill beyond that, so
//     edge removal needs no hash map and a line node's entries sit in
//     one record;
//   - the protocol's four effectiveness bits per class are cached in
//     effMask, and touch[s] lists the classes containing state s whose
//     mask is nonzero — the only classes whose weights can move when
//     the population count of s changes. Classes no rule ever touches
//     are never reweighed;
//   - reweighs are deferred and deduplicated per landing (dirty list
//     with a stamp array), so each affected class is recomputed once
//     from final counts. That matters for gen: a landing that shuffles
//     weight through a class and back (the Simple-Global-Line walker
//     swap moves one active edge out of class {q₂, w} and another in)
//     must not bump gen on the transient;
//   - swapCell marks the edge classes whose rule is a deterministic
//     state swap — the walker-walk workhorse — for which indexedLoop
//     with swap runs on runs a specialized kernel (no rule lookup, no
//     store access, no coins) through applySwap; runs lists the live
//     ones whose swap leaves the output graph alone, the classes
//     indexedLoop reveals swap runs on.
//
// Under a restricted topology (cfg.Topology() non-nil) the population
// products no longer count schedulable pairs, so P(q₁,q₂) is replaced
// by a census of the *permitted* pairs: every permitted pair of a class
// some rule reads sits in a per-class list (pairCnt/pairList, with
// pairSlot locating each pair by its position in the topology's
// adjacency rows), moved between classes in O(deg_topo · log deg_topo)
// when an endpoint changes state. Non-edge sampling then draws from the class's
// permitted-pair list by rejection against the active edges (active ⊆
// permitted — an invariant Run enforces on the initial configuration
// and interactions preserve). Only indexedLoop with swap runs off ever
// sees a topology (Run turns runs off under one), and every
// topology branch sits behind a nil check outside the swap kernel.
//
// The index is bound to the Config it was built from and must be
// notified after every effective interaction (Update) and every
// out-of-band write (nodeChanged / edgeChanged, through a Mutator);
// mutating the Config behind its back invalidates it. It is not safe
// for concurrent use.
type batchIndex struct {
	cfg   *Config
	proto *Protocol
	q     int

	// byState lists the nodes in each state; slot is each node's index
	// in its list, so state moves are O(1) swap-removes.
	byState [][]int32
	slot    []int32

	// Active edges by canonical class id (q₁·|Q|+q₂, q₁≤q₂): edgeCount
	// is A(q₁,q₂) (maintained where effMask ≠ 0), edgeList holds the
	// edges of listed classes packed u<<32|v (u < v).
	edgeCount []int64
	edgeList  [][]uint64

	// mirror locates each listed edge {u, x} (u < x) in its class list,
	// at the lower endpoint u: two inline (other, slot) entries per node,
	// so a line or ring node never looks further. An entry with
	// other = 0 is empty — a mirrored edge's other endpoint exceeds
	// u ≥ 0. A node with more listed edges (a star centre) keeps the
	// rest in mpool row mspill[u]−1; mspill[u] = 0 flags no spill.
	mirror []mirrorNode
	mspill []int32
	mpool  spillPool[mirrorEntry]

	// Permitted-pair census, populated only under a restricted topology
	// (topo non-nil) and only for classes with effMask ≠ 0: pairCnt is
	// the class's permitted-pair count, pairList its pairs packed
	// u<<32|v (u < v). pairSlot[topoOff[u]+k] is the list slot of the
	// pair {u, topo.adj[u][k]} for u < topo.adj[u][k].
	topo     *Topology
	pairCnt  []int64
	pairList [][]uint64
	pairSlot []int32
	topoOff  []int32

	// w and we cache each class's enabled / edge-enabled pair count per
	// edge bit (index 2·id + edgeBit); enabled and edgeEnabled are their
	// running totals.
	w, we       []int64
	enabled     int64
	edgeEnabled int64

	effMask []uint8
	// classRow[id] is the first state of class id (id / |Q|).
	classRow []int32
	// live lists, ascending, the class ids with effMask ≠ 0 — the only
	// classes whose weights can be nonzero, so the only ones sample
	// needs to walk.
	live     []int32
	listed   []bool
	swapCell []bool
	swapOut  []bool
	runs     []int32
	touch    [][]int32

	gen uint64

	dirty      []int32
	dirtyStamp []uint64
	stamp      uint64

	// wpath is the swap-run collapse's cached walker segment (see
	// walkChunk); it lives here (rather than on indexedLoop's stack) so
	// its scan buffers survive workspace reuse and steady-state
	// campaign trials stay allocation-free.
	wpath walkPath

	// Sampling-effort telemetry, zeroed per reset (i.e. per run):
	// rejections counts candidate non-edge draws discarded for hitting
	// an active edge.
	rejections int64
}

// mirrorEntry records one listed-class active edge incident to the
// node owning it: the other endpoint and the edge's position in its
// class list. Entries live at the lower-id endpoint only.
type mirrorEntry struct {
	other int32
	slot  int32
}

// mirrorNode is a node's inline pair of mirror entries.
type mirrorNode [2]mirrorEntry

// effMask bit layout: EffectiveOn(a, b, edge) and
// EdgeEffectiveOn(a, b, edge) for edge ∈ {0, 1}.
const (
	effNonEdge     = 1 << 0
	effEdge        = 1 << 1
	effEdgeNonEdge = 1 << 2
	effEdgeEdge    = 1 << 3
)

func newBatchIndex(cfg *Config) *batchIndex {
	bi := &batchIndex{}
	bi.reset(cfg)
	return bi
}

// reset rebinds the index to cfg and rebuilds it in place in
// O(n + m + |Q|²), reusing every backing array that fits — the
// workspace path's allocation-free fresh build. newBatchIndex
// delegates here, so there is exactly one copy of the order-sensitive
// construction and a reset index samples bit-identically to a fresh
// one by construction.
func (bi *batchIndex) reset(cfg *Config) {
	n := cfg.n
	if n > maxSparseNodes {
		panic(fmt.Sprintf("core: the census index supports populations up to %d, got %d", maxSparseNodes, n))
	}
	q := cfg.proto.Size()
	bi.cfg = cfg
	cfg.store.keepRows()
	if bi.q != q {
		bi.q = q
		bi.byState = make([][]int32, q)
		bi.edgeCount = make([]int64, q*q)
		bi.edgeList = make([][]uint64, q*q)
		bi.w = make([]int64, 2*q*q)
		bi.we = make([]int64, 2*q*q)
		bi.effMask = make([]uint8, q*q)
		bi.classRow = make([]int32, q*q)
		for id := range bi.classRow {
			bi.classRow[id] = int32(id / q)
		}
		bi.listed = make([]bool, q*q)
		bi.swapCell = make([]bool, q*q)
		bi.swapOut = make([]bool, q*q)
		bi.touch = make([][]int32, q)
		bi.dirtyStamp = make([]uint64, q*q)
		bi.proto = nil
	} else {
		for i := range bi.byState {
			bi.byState[i] = bi.byState[i][:0]
		}
		for i := range bi.edgeList {
			bi.edgeCount[i] = 0
			bi.edgeList[i] = bi.edgeList[i][:0]
		}
		for i := range bi.w {
			bi.w[i] = 0
			bi.we[i] = 0
		}
		for i := range bi.dirtyStamp {
			bi.dirtyStamp[i] = 0
		}
	}
	if bi.proto != cfg.proto {
		bi.proto = cfg.proto
		bi.rebuildMasks()
	}
	if cap(bi.slot) < n {
		bi.slot = make([]int32, n)
	} else {
		bi.slot = bi.slot[:n]
	}
	if cap(bi.mirror) < n {
		bi.mirror = make([]mirrorNode, n)
		bi.mspill = make([]int32, n)
	} else {
		bi.mirror = bi.mirror[:n]
		bi.mspill = bi.mspill[:n]
		clear(bi.mirror)
		clear(bi.mspill)
	}
	bi.mpool.releaseAll()
	bi.enabled, bi.edgeEnabled = 0, 0
	bi.rejections = 0
	bi.gen, bi.stamp = 0, 0
	bi.dirty = bi.dirty[:0]
	bi.wpath.valid = false

	for u, s := range cfg.nodes {
		bi.slot[u] = int32(len(bi.byState[s]))
		bi.byState[s] = append(bi.byState[s], int32(u))
	}
	bi.topo = cfg.topo
	if bi.topo != nil {
		bi.resetPairs(q)
	}
	cfg.store.forEach(func(u, v int) {
		bi.addEdge(u, v, bi.classID(cfg.nodes[u], cfg.nodes[v]))
	})
	for _, id := range bi.live {
		bi.reweigh(int(id))
	}
	// The build's reweighs bump gen; a fresh index starts a fresh
	// census history.
	bi.gen = 0
}

// resetPairs rebuilds the permitted-pair census for bi.topo, visiting
// the pairs in ascending (u, v) order — the topology's canonical pair
// order.
func (bi *batchIndex) resetPairs(q int) {
	t := bi.topo
	n := bi.cfg.n
	if len(bi.pairCnt) != q*q {
		bi.pairCnt = make([]int64, q*q)
		bi.pairList = make([][]uint64, q*q)
	} else {
		for i := range bi.pairList {
			bi.pairCnt[i] = 0
			bi.pairList[i] = bi.pairList[i][:0]
		}
	}
	if cap(bi.topoOff) < n+1 {
		bi.topoOff = make([]int32, n+1)
	} else {
		bi.topoOff = bi.topoOff[:n+1]
	}
	off := int32(0)
	for u := 0; u < n; u++ {
		bi.topoOff[u] = off
		off += int32(len(t.adj[u]))
	}
	bi.topoOff[n] = off
	if cap(bi.pairSlot) < int(off) {
		bi.pairSlot = make([]int32, off)
	} else {
		bi.pairSlot = bi.pairSlot[:off]
	}
	nodes := bi.cfg.nodes
	for u := 0; u < n; u++ {
		for k, x := range t.adj[u] {
			if int(x) > u {
				bi.insertPair(u, int(x), int(bi.topoOff[u])+k, bi.classID(nodes[u], nodes[x]))
			}
		}
	}
}

// rebuildMasks caches the protocol's effectiveness bits, the listed
// and swap-kernel class sets, and the per-state touch lists.
func (bi *batchIndex) rebuildMasks() {
	p := bi.proto
	q := bi.q
	for a := 0; a < q; a++ {
		bi.touch[a] = bi.touch[a][:0]
	}
	bi.live = bi.live[:0]
	bi.runs = bi.runs[:0]
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			id := a*q + b
			var m uint8
			if p.EffectiveOn(State(a), State(b), false) {
				m |= effNonEdge
			}
			if p.EffectiveOn(State(a), State(b), true) {
				m |= effEdge
			}
			if p.EdgeEffectiveOn(State(a), State(b), false) {
				m |= effEdgeNonEdge
			}
			if p.EdgeEffectiveOn(State(a), State(b), true) {
				m |= effEdgeEdge
			}
			bi.effMask[id] = m
			bi.listed[id] = m&effEdge != 0
			e := p.lookup(State(a), State(b), true)
			bi.swapCell[id] = a != b && e.effective && !e.alt &&
				e.outA == State(b) && e.outB == State(a) && e.outEdge
			// A swap changes the output graph iff exactly one of the
			// two states is in Qout — collapse (which cannot track a
			// per-landing ConvergenceTime) is restricted to classes
			// where it does not.
			bi.swapOut[id] = p.IsOutput(State(a)) != p.IsOutput(State(b))
			if m != 0 {
				bi.live = append(bi.live, int32(id))
				if bi.swapCell[id] && !bi.swapOut[id] {
					bi.runs = append(bi.runs, int32(id))
				}
				bi.touch[a] = append(bi.touch[a], int32(id))
				if b != a {
					bi.touch[b] = append(bi.touch[b], int32(id))
				}
			}
		}
	}
}

// classStates inverts classID through the classRow table: reweigh and
// sample run it per landing, where a division would dominate them.
func (bi *batchIndex) classStates(id int) (a, b int) {
	a = int(bi.classRow[id])
	return a, id - a*bi.q
}

func (bi *batchIndex) classID(a, b State) int {
	if a > b {
		a, b = b, a
	}
	return int(a)*bi.q + int(b)
}

// addEdge and dropEdge keep the per-class edge counts for the classes
// some rule reads (effMask ≠ 0 — the only counts reweigh and
// sampleNonEdge consume) and the edge list (plus its mirror entry) for
// listed classes only. Classes outside both sets — the inert bulk —
// cost nothing to move edges through.

func (bi *batchIndex) addEdge(u, v, id int) {
	if bi.effMask[id] == 0 {
		return
	}
	bi.edgeCount[id]++
	if !bi.listed[id] {
		return
	}
	if u > v {
		u, v = v, u
	}
	bi.mirrorAdd(u, v, int32(len(bi.edgeList[id])))
	bi.edgeList[id] = append(bi.edgeList[id], uint64(u)<<32|uint64(v))
}

func (bi *batchIndex) dropEdge(u, v, id int) {
	if bi.effMask[id] == 0 {
		return
	}
	bi.edgeCount[id]--
	if !bi.listed[id] {
		return
	}
	if u > v {
		u, v = v, u
	}
	slot := bi.mirrorTake(u, v)
	list := bi.edgeList[id]
	lastIdx := len(list) - 1
	if int(slot) != lastIdx {
		last := list[lastIdx]
		list[slot] = last
		// Fix the displaced edge's mirror entry.
		bi.mirrorAt(int(last>>32), int(last&0xffffffff)).slot = slot
	}
	bi.edgeList[id] = list[:lastIdx]
}

// mirrorAdd records listed edge {a, b} (a < b) at slot in its class
// list: in a free inline entry of a, else in a's spill row.
func (bi *batchIndex) mirrorAdd(a, b int, slot int32) {
	e := mirrorEntry{other: int32(b), slot: slot}
	m := &bi.mirror[a]
	switch {
	case m[0].other == 0:
		m[0] = e
	case m[1].other == 0:
		m[1] = e
	default:
		p := bi.mspill[a] - 1
		if p < 0 {
			p = bi.mpool.take()
			bi.mspill[a] = p + 1
		}
		bi.mpool.rows[p] = append(bi.mpool.rows[p], e)
	}
}

// mirrorAt returns the mirror entry of listed edge {a, b} (a < b).
func (bi *batchIndex) mirrorAt(a, b int) *mirrorEntry {
	m := &bi.mirror[a]
	for i := range m {
		if m[i].other == int32(b) {
			return &m[i]
		}
	}
	sp := bi.mpool.rows[bi.mspill[a]-1]
	i := 0
	for sp[i].other != int32(b) {
		i++
	}
	return &sp[i]
}

// mirrorTake removes the mirror entry of listed edge {a, b} (a < b)
// and returns the edge's slot in its class list. A spill row emptied
// by the removal returns to the pool.
func (bi *batchIndex) mirrorTake(a, b int) int32 {
	m := &bi.mirror[a]
	for i := range m {
		if m[i].other == int32(b) {
			slot := m[i].slot
			m[i] = mirrorEntry{}
			return slot
		}
	}
	p := bi.mspill[a] - 1
	sp := bi.mpool.rows[p]
	i := 0
	for sp[i].other != int32(b) {
		i++
	}
	slot := sp[i].slot
	sp[i] = sp[len(sp)-1]
	bi.mpool.rows[p] = sp[:len(sp)-1]
	if len(sp) == 1 {
		bi.mspill[a] = 0
		bi.mpool.release(p)
	}
	return slot
}

func (bi *batchIndex) moveEdge(u, v, fromID, toID int) {
	if fromID == toID {
		return
	}
	bi.dropEdge(u, v, fromID)
	bi.addEdge(u, v, toID)
	bi.markDirty(fromID)
	bi.markDirty(toID)
}

func (bi *batchIndex) moveNode(u int, from, to State) {
	list := bi.byState[from]
	s := bi.slot[u]
	last := list[len(list)-1]
	list[s] = last
	bi.slot[last] = s
	bi.byState[from] = list[:len(list)-1]
	bi.slot[u] = int32(len(bi.byState[to]))
	bi.byState[to] = append(bi.byState[to], int32(u))
}

// pairPos returns the adjacency position pairSlot uses for the
// permitted pair {u, v}, u < v: a binary search of u's sorted
// topology row, O(log deg_topo).
func (bi *batchIndex) pairPos(u, v int) int {
	k, _ := slices.BinarySearch(bi.topo.adj[u], int32(v))
	return int(bi.topoOff[u]) + k
}

// insertPair, removePair and movePair maintain the permitted-pair
// census for the pair {u, v} (u < v) at adjacency position pos — the
// list counterpart of addEdge/dropEdge, kept only for classes some
// rule reads.

func (bi *batchIndex) insertPair(u, v, pos, id int) {
	if bi.effMask[id] == 0 {
		return
	}
	bi.pairCnt[id]++
	bi.pairSlot[pos] = int32(len(bi.pairList[id]))
	bi.pairList[id] = append(bi.pairList[id], uint64(u)<<32|uint64(v))
}

func (bi *batchIndex) removePair(pos, id int) {
	if bi.effMask[id] == 0 {
		return
	}
	bi.pairCnt[id]--
	slot := bi.pairSlot[pos]
	list := bi.pairList[id]
	last := list[len(list)-1]
	list[slot] = last
	bi.pairSlot[bi.pairPos(int(last>>32), int(last&0xffffffff))] = slot
	bi.pairList[id] = list[:len(list)-1]
}

func (bi *batchIndex) movePair(u, v, pos, fromID, toID int) {
	if fromID == toID {
		return
	}
	bi.removePair(pos, fromID)
	bi.insertPair(u, v, pos, toID)
	bi.markDirty(fromID)
	bi.markDirty(toID)
}

// movePairsOf re-classes the permitted pairs incident to node u after
// its state changed from `from` to `to`; the pair {u, skip} (the
// interaction partner, whose own state may also have changed) is
// handled separately by the caller. O(deg_topo(u) · log deg_topo).
func (bi *batchIndex) movePairsOf(u int, from, to State, skip int) {
	nodes := bi.cfg.nodes
	for k, x32 := range bi.topo.adj[u] {
		x := int(x32)
		if x == skip {
			continue
		}
		sx := nodes[x]
		if u < x {
			bi.movePair(u, x, int(bi.topoOff[u])+k, bi.classID(from, sx), bi.classID(to, sx))
		} else {
			bi.movePair(x, u, bi.pairPos(x, u), bi.classID(from, sx), bi.classID(to, sx))
		}
	}
}

// reweigh recomputes one class's cached weights from the current
// counts and edge buckets, folding deltas into the totals and bumping
// gen iff some cached value actually changed. Idempotent.
func (bi *batchIndex) reweigh(id int) {
	mask := bi.effMask[id]
	act := bi.edgeCount[id]
	non := bi.classPairs(id) - act
	var w0, w1, we0, we1 int64
	if mask&effNonEdge != 0 {
		w0 = non
	}
	if mask&effEdge != 0 {
		w1 = act
	}
	if mask&effEdgeNonEdge != 0 {
		we0 = non
	}
	if mask&effEdgeEdge != 0 {
		we1 = act
	}
	if w0 != bi.w[2*id] || w1 != bi.w[2*id+1] || we0 != bi.we[2*id] || we1 != bi.we[2*id+1] {
		bi.gen++
		bi.enabled += w0 + w1 - bi.w[2*id] - bi.w[2*id+1]
		bi.w[2*id], bi.w[2*id+1] = w0, w1
		bi.edgeEnabled += we0 + we1 - bi.we[2*id] - bi.we[2*id+1]
		bi.we[2*id], bi.we[2*id+1] = we0, we1
	}
}

// classPairs returns the number of pairs in class id the scheduler can
// draw: the population product, or under a restricted topology —
// where that product over-counts pairs the scheduler can never draw —
// the permitted-pair census.
func (bi *batchIndex) classPairs(id int) int64 {
	a, b := bi.classStates(id)
	switch {
	case bi.topo != nil:
		return bi.pairCnt[id]
	case a == b:
		k := int64(bi.cfg.counts[a])
		return k * (k - 1) / 2
	default:
		return int64(bi.cfg.counts[a]) * int64(bi.cfg.counts[b])
	}
}

// markDirty queues a class for the end-of-update reweigh, skipping
// classes no rule can enable (their weights are identically zero).
func (bi *batchIndex) markDirty(id int) {
	if bi.effMask[id] == 0 {
		return
	}
	if bi.dirtyStamp[id] == bi.stamp {
		return
	}
	bi.dirtyStamp[id] = bi.stamp
	bi.dirty = append(bi.dirty, int32(id))
}

// markState queues every class containing s that some rule touches.
func (bi *batchIndex) markState(s State) {
	for _, id := range bi.touch[s] {
		bi.markDirty(int(id))
	}
}

func (bi *batchIndex) flushDirty() {
	for _, id := range bi.dirty {
		bi.reweigh(int(id))
	}
	bi.dirty = bi.dirty[:0]
}

func (bi *batchIndex) enabledPairs() int64     { return bi.enabled }
func (bi *batchIndex) edgeEnabledPairs() int64 { return bi.edgeEnabled }

// Update refreshes the index after an interaction was applied to the
// pair {u, v}. beforeU and beforeV are the node states before the
// interaction and edgeChanged reports whether the edge flipped —
// exactly what Config.Apply exposes. Nodes, incident edges and (under
// a topology) incident permitted pairs move between classes, and only
// the classes whose weights can actually have moved are reweighed,
// once, from final counts. A pure state swap (afterU = beforeV,
// afterV = beforeU, no edge change) leaves every population count
// unchanged, so only the classes of reclassified edges and pairs are
// touched. Cost: O(deg(u) + deg(v) + |Q|) when a node state changed,
// O(1) for edge-only transitions.
func (bi *batchIndex) Update(u, v int, beforeU, beforeV State, edgeChanged bool) {
	bi.update(u, v, beforeU, beforeV, bi.cfg.store.get(u, v) != edgeChanged, edgeChanged)
}

// update is Update given the edge state edgeBefore the interaction
// read — indexedLoop knows it from the sampled cell, so the landing
// pays no edge probe.
func (bi *batchIndex) update(u, v int, beforeU, beforeV State, edgeBefore, edgeChanged bool) {
	cfg := bi.cfg
	afterU, afterV := cfg.nodes[u], cfg.nodes[v]
	edgeNow := edgeBefore != edgeChanged
	bi.stamp++

	if afterU != beforeU {
		bi.moveNode(u, beforeU, afterU)
		bi.reclassifyIncident(u, v, beforeU, afterU)
		if bi.topo != nil {
			bi.movePairsOf(u, beforeU, afterU, v)
		}
	}
	if afterV != beforeV {
		bi.moveNode(v, beforeV, afterV)
		bi.reclassifyIncident(v, u, beforeV, afterV)
		if bi.topo != nil {
			bi.movePairsOf(v, beforeV, afterV, u)
		}
	}
	// The scheduled pair {u, v} is itself permitted; re-class it once
	// with both endpoints' before/after states.
	if bi.topo != nil && (afterU != beforeU || afterV != beforeV) {
		a, b := min(u, v), max(u, v)
		bi.movePair(a, b, bi.pairPos(a, b), bi.classID(beforeU, beforeV), bi.classID(afterU, afterV))
	}
	switch {
	case edgeBefore && edgeNow:
		bi.moveEdge(u, v, bi.classID(beforeU, beforeV), bi.classID(afterU, afterV))
	case edgeBefore && !edgeNow:
		id := bi.classID(beforeU, beforeV)
		bi.dropEdge(u, v, id)
		bi.markDirty(id)
	case !edgeBefore && edgeNow:
		id := bi.classID(afterU, afterV)
		bi.addEdge(u, v, id)
		bi.markDirty(id)
	}

	switch {
	case afterU == beforeU && afterV == beforeV:
		// Edge-only transition: only the pair's own class can move.
		bi.markDirty(bi.classID(afterU, afterV))
	case afterU == beforeV && afterV == beforeU:
		// Pure swap: population counts unchanged; the edge moves above
		// already marked every class whose A changed.
	default:
		bi.markState(beforeU)
		if afterU != beforeU {
			bi.markState(afterU)
		}
		bi.markState(beforeV)
		if afterV != beforeV {
			bi.markState(afterV)
		}
	}
	bi.flushDirty()
}

// nodeChanged refreshes the index after an out-of-band write to node
// u's state (scenario faults applied through a Mutator): the
// single-node case of Update, O(deg(u) + |Q|). before is the state u
// held when the index was last consistent.
func (bi *batchIndex) nodeChanged(u int, before State) {
	after := bi.cfg.nodes[u]
	if after == before {
		return
	}
	bi.stamp++
	bi.moveNode(u, before, after)
	bi.reclassifyIncident(u, -1, before, after)
	if bi.topo != nil {
		bi.movePairsOf(u, before, after, -1)
	}
	bi.markState(before)
	bi.markState(after)
	bi.flushDirty()
}

// edgeChanged refreshes the index after an out-of-band toggle of edge
// {u, v}: the edge joins or leaves its class and that single class is
// reweighed — O(1) plus the listed-class mirror scan.
func (bi *batchIndex) edgeChanged(u, v int) {
	id := bi.classID(bi.cfg.nodes[u], bi.cfg.nodes[v])
	if bi.cfg.store.get(u, v) {
		bi.addEdge(u, v, id)
	} else {
		bi.dropEdge(u, v, id)
	}
	bi.reweigh(id)
}

// applySwap is the index side of indexedLoop's swap kernel: the caller
// has already swapped nodes[u] and nodes[v] (their pre-swap states
// beforeU ≠ beforeV), nothing else changed. u and v exchange their
// byState slots in place, incident edges reclassify, and only the
// classes whose edge counts moved are reweighed.
func (bi *batchIndex) applySwap(u, v int, beforeU, beforeV State) {
	bi.byState[beforeU][bi.slot[u]] = int32(v)
	bi.byState[beforeV][bi.slot[v]] = int32(u)
	bi.slot[u], bi.slot[v] = bi.slot[v], bi.slot[u]
	bi.stamp++

	bi.reclassifyIncident(u, v, beforeU, beforeV)
	bi.reclassifyIncident(v, u, beforeV, beforeU)
	// The {u, v} edge's own class is the unordered pair {beforeU,
	// beforeV}, unchanged by the swap.
	bi.flushDirty()
}

// swapLanding lands on a uniform active edge of deterministic-swap
// class id: the two endpoint states are exchanged in place and the
// index patched by applySwapFast, or by the generic applySwap where the
// census-invariant surgery does not apply. A swap is
// orientation-symmetric and its compiled entry consumes no coins, so
// this is the law of Config.Apply on that class with the rule lookup,
// the orientation coin and the edge-store reads removed. It returns the
// pair and its pre-swap states.
func (bi *batchIndex) swapLanding(id int, rng *RNG) (u, v int, beforeU, beforeV State) {
	list := bi.edgeList[id]
	key := list[rng.IntN(len(list))]
	u, v = int(key>>32), int(key&0xffffffff)
	nodes := bi.cfg.nodes
	beforeU, beforeV = nodes[u], nodes[v]
	nodes[u], nodes[v] = beforeV, beforeU
	if !bi.applySwapFast(u, v, beforeU, beforeV) {
		bi.applySwap(u, v, beforeU, beforeV)
	}
	return u, v, beforeU, beforeV
}

// applySwapFast applies the census-invariant interior-swap surgery:
// when both swapped endpoints have exactly two active edges and their
// outer neighbors share one state s, the swap provably moves no class
// weight — class {beforeU, s} loses edge {u, x} and gains {v, y},
// class {beforeV, s} the reverse, and every population count is
// untouched — so instead of the generic reclassify/reweigh machinery
// the two listed-edge keys are rewritten in place: no adjacency walk,
// no dirty pass, no reweigh, and gen unchanged by construction. It
// returns false (touching nothing) when the pattern does not apply;
// the caller falls back to applySwap. Like applySwap it expects
// cfg.nodes[u] and cfg.nodes[v] already exchanged by the caller.
func (bi *batchIndex) applySwapFast(u, v int, beforeU, beforeV State) bool {
	store := &bi.cfg.store
	au, av := store.row(u), store.row(v)
	if len(au) != 2 || len(av) != 2 {
		return false
	}
	x := int(au[0])
	if x == v {
		x = int(au[1])
	}
	y := int(av[0])
	if y == u {
		y = int(av[1])
	}
	nodes := bi.cfg.nodes
	s := nodes[x]
	if s != nodes[y] {
		return false
	}
	bi.byState[beforeU][bi.slot[u]] = int32(v)
	bi.byState[beforeV][bi.slot[v]] = int32(u)
	bi.slot[u], bi.slot[v] = bi.slot[v], bi.slot[u]
	// Unlist both old keys before listing the new ones: edge {v, y}
	// would transiently be mirrored in two classes otherwise, and the
	// mirror scan matches on the endpoint pair alone.
	idA := bi.classID(beforeU, s)
	idB := bi.classID(beforeV, s)
	slotA, haveA := bi.unlistEdge(u, x, idA)
	slotB, haveB := bi.unlistEdge(v, y, idB)
	if haveA {
		bi.listEdgeAt(v, y, idA, slotA)
	}
	if haveB {
		bi.listEdgeAt(u, x, idB, slotB)
	}
	return true
}

// unlistEdge removes the mirror entry of edge {a, b} (class id) and
// returns the edge's slot in the class list; the list entry itself is
// left in place for listEdgeAt to overwrite. Unlisted classes keep no
// entries and report false — their counts are unchanged by a
// same-class key replacement, so there is nothing to do.
func (bi *batchIndex) unlistEdge(a, b, id int) (int32, bool) {
	if !bi.listed[id] {
		return 0, false
	}
	if a > b {
		a, b = b, a
	}
	return bi.mirrorTake(a, b), true
}

// listEdgeAt writes edge {a, b} into class id's list at slot and
// mirrors it at the lower endpoint.
func (bi *batchIndex) listEdgeAt(a, b, id int, slot int32) {
	if a > b {
		a, b = b, a
	}
	bi.edgeList[id][slot] = uint64(a)<<32 | uint64(b)
	bi.mirrorAdd(a, b, slot)
}

// reclassifyIncident moves every active edge incident to u except
// {u, v} from class {before, sx} to class {after, sx} — the
// state-change fixup shared by Update and applySwap — walking u's
// adjacency row in place. The fused mask check skips an edge whose old
// and new classes no rule reads (dropEdge, addEdge and markDirty would
// all leave it untouched), so a move through the inert bulk costs one
// masked load per neighbor.
func (bi *batchIndex) reclassifyIncident(u, v int, before, after State) {
	nodes := bi.cfg.nodes
	effMask := bi.effMask
	for _, x32 := range bi.cfg.store.row(u) {
		x := int(x32)
		if x == v {
			continue
		}
		from, to := bi.classIDs(nodes[x], before, after)
		if effMask[from]|effMask[to] == 0 {
			continue
		}
		bi.dropEdge(u, x, from)
		bi.addEdge(u, x, to)
		bi.markDirty(from)
		bi.markDirty(to)
	}
}

// classIDs returns the classes {before, sx} and {after, sx}: classID
// for two states sharing one endpoint.
func (bi *batchIndex) classIDs(sx, before, after State) (from, to int) {
	q, s := bi.q, int(sx)
	if s >= int(before) {
		from = int(before)*q + s
	} else {
		from = s*q + int(before)
	}
	if s >= int(after) {
		to = int(after)*q + s
	} else {
		to = s*q + int(after)
	}
	return from, to
}

// sample returns a uniformly random enabled pair in random orientation
// (matching the orientation law of RNG.Pair) and its edge bit: a class
// sub-bucket drawn proportionally to its weight, then a member of it.
// It must not be called when no pair is enabled.
func (bi *batchIndex) sample(rng *RNG) (u, v int, edge bool) {
	cell := bi.sampleCell(rng, -1)
	u, v = bi.sampleMember(cell, rng)
	return u, v, cell&1 == 1
}

// sampleCell draws a sub-bucket key 2·id + edgeBit proportionally to
// the cached weights, excluding sub-bucket skip (−1 excludes none; an
// excluded sub-bucket must leave some weight elsewhere). The walk
// visits the live classes in ascending id order; the classes it skips
// have zero weight, so the draw is the one a walk over all |Q|²
// classes makes.
func (bi *batchIndex) sampleCell(rng *RNG, skip int32) int32 {
	total := bi.enabled
	if skip >= 0 {
		total -= bi.w[skip]
	}
	r := rng.Int64N(total)
	for _, id := range bi.live {
		cell := 2 * id
		w0, w1 := bi.w[cell], bi.w[cell+1]
		if cell == skip {
			w0 = 0
		} else if cell+1 == skip {
			w1 = 0
		}
		if r < w0 {
			return cell
		}
		r -= w0
		if r < w1 {
			return cell + 1
		}
		r -= w1
	}
	panic("core: batchIndex class weights inconsistent with total")
}

// sampleMember draws a uniformly random pair of sub-bucket cell, in
// random orientation: an O(1) list draw for an edge cell, a non-edge
// draw (sampleNonEdge) otherwise.
func (bi *batchIndex) sampleMember(cell int32, rng *RNG) (u, v int) {
	id := int(cell >> 1)
	if cell&1 == 0 {
		return bi.sampleNonEdge(id, rng)
	}
	key := bi.edgeList[id][rng.IntN(len(bi.edgeList[id]))]
	return orient(int(key>>32), int(key&0xffffffff), rng)
}

// runClass returns the edge sub-bucket 2·id + 1 of the run-eligible
// swap class (runs) with the most listed edges, and its weight — zero
// when no such class holds an edge.
func (bi *batchIndex) runClass() (cell int32, w int64) {
	for _, id := range bi.runs {
		if x := bi.w[2*id+1]; x > w {
			cell, w = 2*id+1, x
		}
	}
	return cell, w
}

// sampleNonEdge draws a uniformly random non-edge pair of class id =
// {a, b} by rejection: a uniform pair of the class — from the per-state
// node lists (distinct indices on the diagonal), or under a topology
// from the class's permitted-pair list — redrawn until it is not an
// active edge. Active ⊆ permitted, so the rejection test is exact on
// either source. With k of the class's P pairs free a draw costs P/k
// expected tries, P·H(P) ≈ P ln P for a whole fill. A class with no
// free pair would loop forever, so after 64·P straight rejections —
// odds below e⁻⁶⁴ while a pair is free — the index is inconsistent and
// the draw panics.
func (bi *batchIndex) sampleNonEdge(id int, rng *RNG) (int, int) {
	store := bi.cfg.store
	a, b := bi.classStates(id)
	la, lb := bi.byState[a], bi.byState[b]
	topo, diag := bi.topo != nil, a == b
	var list []uint64
	if topo {
		list = bi.pairList[id]
	}
	for tries := 64 * bi.classPairs(id); tries > 0; tries-- {
		var u, v int
		switch {
		case topo:
			key := list[rng.IntN(len(list))]
			u, v = int(key>>32), int(key&0xffffffff)
		case diag:
			i := rng.IntN(len(la))
			j := rng.IntN(len(la) - 1)
			if j >= i {
				j++
			}
			u, v = int(la[i]), int(la[j])
		default:
			u = int(la[rng.IntN(len(la))])
			v = int(lb[rng.IntN(len(lb))])
		}
		if !store.get(u, v) {
			return orient(u, v, rng)
		}
		bi.rejections++
	}
	panic("core: class non-edge count inconsistent with class weights")
}

// orient returns the pair in uniformly random orientation.
func orient(u, v int, rng *RNG) (int, int) {
	if rng.Coin() {
		return v, u
	}
	return u, v
}

// ---------------------------------------------------------------------
// Swap-run collapse support (see indexedLoop's collapse block in
// indexed.go). A deterministic-swap class whose edge list holds exactly
// two edges sharing an endpoint is a single walker on a line (or
// cycle): the shared endpoint carries the walker state ws, its two
// neighbours carry the partner state bs, and every landing on the
// class moves the walker one position left or right with equal
// probability. While the walker stays on a segment of nodes that all
// have state bs and degree 2, no landing can change any class weight —
// the census is frozen by construction, not just by observation — so k
// consecutive landings form an unconstrained ±1 random walk and their
// net displacement is one WalkDisplacement draw. walkPath caches that
// segment so consecutive collapses against the same census pay one
// adjacency scan, amortized O(1) per collapsed landing.

// walkPath is the cached safe segment around a single walker, in path
// coordinates: position 0 is the anchor node the path was scanned
// from, negative positions extend through the first scan direction
// (left), positive through the second (right).
type walkPath struct {
	left   []int32 // nodes at positions −1, −2, …
	right  []int32 // nodes at positions +1, +2, …
	anchor int32   // node at position 0 (the walker at scan time)
	pos    int64   // walker's current position
	lo, hi int64   // occupiable range: a walk staying in [lo, hi] is unconstrained
	openL  bool    // the left scan stopped at its cap, not at an unsafe node
	openR  bool
	cyclic bool  // the segment closes into an all-safe cycle
	ring   int64 // cycle length when cyclic
	ws, bs State // walker and partner state of the cached class
	gen    uint64
	cell   int32
	valid  bool
}

// node maps a path position to its node id. On a cycle the positions
// wrap (ring = cycle length); the displacement law is symmetric, so
// the direction convention is immaterial.
func (wp *walkPath) node(p int64) int32 {
	if wp.cyclic {
		m := p % wp.ring
		if m < 0 {
			m += wp.ring
		}
		if m == 0 {
			return wp.anchor
		}
		return wp.left[m-1]
	}
	switch {
	case p == 0:
		return wp.anchor
	case p < 0:
		return wp.left[-p-1]
	default:
		return wp.right[p-1]
	}
}

// scanDir walks the line away from anchor starting at first, appending
// safe nodes (state bs, degree 2) until an unsafe node or the cap.
// ext is the furthest position the walker may occupy in this
// direction: occupying position k needs positions 1…k safe and the
// node at k+1 present with state bs (it becomes the walker's other
// listed edge). open reports a cap stop — the segment continues but
// was not scanned. wrapped reports the scan returning to the anchor:
// an all-safe cycle.
func (bi *batchIndex) scanDir(buf []int32, anchor, first int32, bs State, cap int64) (nodes []int32, ext int64, open, wrapped bool) {
	nodes = buf
	cfg := bi.cfg
	prev, cur := anchor, first
	for {
		if cur == anchor {
			return nodes, int64(len(nodes)), false, true
		}
		if cfg.nodes[cur] != bs {
			// cur cannot even serve as the lookahead neighbour of an
			// occupied position.
			return nodes, int64(len(nodes)) - 1, false, false
		}
		row := cfg.store.row(int(cur))
		if len(row) != 2 {
			// cur is a valid lookahead (state bs) but not occupiable:
			// moving onto it would reclassify its extra or missing
			// edges.
			return nodes, int64(len(nodes)), false, false
		}
		if int64(len(nodes)) >= cap {
			// Cap stop: the last appended node needs cur as lookahead,
			// so the extent is one short of the scan.
			return nodes, int64(len(nodes)) - 1, true, false
		}
		nodes = append(nodes, cur)
		nxt := row[0]
		if nxt == prev {
			nxt = row[1]
		}
		prev, cur = cur, nxt
	}
}

// buildWalkPath scans a fresh walkPath for swap class id, centred on
// the single walker the class currently hosts. It returns false when
// the class does not host exactly one interior walker (two listed
// edges sharing a degree-2 endpoint) — multi-walker stretches fall
// back to per-landing kernels.
func (bi *batchIndex) buildWalkPath(id int, need int64) bool {
	wp := &bi.wpath
	wp.valid = false
	list := bi.edgeList[id]
	if len(list) != 2 {
		return false
	}
	a0, b0 := int32(list[0]>>32), int32(list[0]&0xffffffff)
	a1, b1 := int32(list[1]>>32), int32(list[1]&0xffffffff)
	var c, n1, n2 int32
	switch {
	case a0 == a1:
		c, n1, n2 = a0, b0, b1
	case a0 == b1:
		c, n1, n2 = a0, b0, a1
	case b0 == a1:
		c, n1, n2 = b0, a0, b1
	case b0 == b1:
		c, n1, n2 = b0, a0, a1
	default:
		return false // two separate walkers share the class
	}
	if len(bi.cfg.store.row(int(c))) != 2 {
		return false
	}
	ws := bi.cfg.nodes[c]
	bs := State(id / bi.q)
	if bs == ws {
		bs = State(id % bi.q)
	}
	wp.anchor = c
	wp.pos = 0
	wp.ws, wp.bs = ws, bs
	wp.cyclic, wp.ring = false, 0
	scanCap := need + 1
	var extL, extR int64
	var wrapped bool
	wp.left, extL, wp.openL, wrapped = bi.scanDir(wp.left[:0], c, n1, bs, scanCap)
	if wrapped {
		// The walker sits on an all-safe cycle: every position is
		// occupiable and displacements wrap modulo the ring.
		wp.cyclic = true
		wp.ring = int64(len(wp.left)) + 1
		wp.valid = true
		return true
	}
	wp.right, extR, wp.openR, _ = bi.scanDir(wp.right[:0], c, n2, bs, scanCap)
	wp.lo, wp.hi = -extL, extR
	if wp.lo > 0 || wp.hi < 0 {
		// A direction with extent −1 (the immediate neighbour is not
		// even state bs) cannot happen for a listed swap edge, but keep
		// the guard: an empty occupiable range means no collapse.
		return false
	}
	wp.valid = true
	return true
}

// walkChunk reports how many consecutive landings on swap cell can be
// collapsed into one displacement draw right now: the distance from
// the walker to the nearest unsafe position along its cached path,
// bounded by need. Zero means the class does not currently host a
// single interior walker. The cache is rebuilt when the census
// generation moved, the cell changed, or a cap-stopped scan is the
// binding constraint.
func (bi *batchIndex) walkChunk(cell int32, need int64) int64 {
	wp := &bi.wpath
	id := int(cell >> 1)
	if !wp.valid || wp.gen != bi.gen || wp.cell != cell {
		if !bi.buildWalkPath(id, need) {
			return 0
		}
		wp.gen, wp.cell = bi.gen, cell
	}
	if wp.cyclic {
		return need
	}
	avail := min(wp.pos-wp.lo, wp.hi-wp.pos)
	if avail < need && (wp.openL || wp.openR) {
		// The scan cap, not the topology, limits the chunk: rescan
		// around the walker's current position with the bigger horizon.
		if !bi.buildWalkPath(id, need) {
			return 0
		}
		wp.gen, wp.cell = bi.gen, cell
		if wp.cyclic {
			return need
		}
		avail = min(wp.pos-wp.lo, wp.hi-wp.pos)
	}
	return min(avail, need)
}

// relocateWalker keeps the cached path across a run-kernel pass of
// `landings` landings on swap cell: the kernel moves the walker one
// position per landing without telling the cache. When the pass left
// gen unchanged and was short (≤ collapseMin landings — the near-end
// pass indexedLoop takes when walkChunk reports fewer than collapseMin
// collapsible landings), the segment itself is intact — the class
// still lists only the walker's two edges, and every swap moved the
// walker's state onto a partner — so the walker is the one node of
// state ws among the ≤ 2·collapseMin+1 cached positions around wp.pos
// inside [lo, hi]. Anything else (a longer pass, another cell, a moved
// census, or a walker that left the segment) drops the cache, and the
// next walkChunk rescans.
func (bi *batchIndex) relocateWalker(cell int32, landings int64) {
	wp := &bi.wpath
	if !wp.valid || wp.cell != cell || wp.gen != bi.gen || landings > collapseMin {
		wp.valid = false
		return
	}
	from, to := wp.pos-landings, wp.pos+landings
	if !wp.cyclic {
		from, to = max(from, wp.lo), min(to, wp.hi)
	}
	nodes := bi.cfg.nodes
	for p := from; p <= to; p++ {
		if nodes[wp.node(p)] == wp.ws {
			wp.pos = p
			return
		}
	}
	wp.valid = false
}

// collapseMove commits a collapsed swap run's net displacement d: the
// walker state teleports from its current path position to position
// pos+d — a two-node state exchange plus index fixup, identical in
// effect to |d| single swaps along the segment. Every class weight is
// provably unchanged (the walker's two listed edges drop and two new
// ones add in the same class; the traversed interior keeps state bs),
// so gen stays put and any revealed run survives. d = 0 (or a
// full wrap on a cycle) leaves the configuration untouched.
func (bi *batchIndex) collapseMove(d int64) {
	wp := &bi.wpath
	from := int(wp.node(wp.pos))
	wp.pos += d
	to := int(wp.node(wp.pos))
	if from == to {
		return
	}
	bi.cfg.nodes[from], bi.cfg.nodes[to] = wp.bs, wp.ws
	// applySwap's mutual exclusion also fits a jump: when |d| = 1 the
	// {from, to} edge's unordered class is unchanged and must not be
	// touched; for larger jumps the exclusion never matches.
	bi.applySwap(from, to, wp.ws, wp.bs)
}
