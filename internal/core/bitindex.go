package core

import (
	"fmt"
	"math/bits"
)

// bitRowNodes is the largest population the bit-row index serves: a
// node's enabled partners fit one uint64 row. Workspace.index compares
// n against it, the one place a run's index is chosen; every larger
// run uses the census index.
const bitRowNodes = 64

// bitIndex is the enabled-pair index for populations of at most
// bitRowNodes nodes. It reads u's active edges as adj[u], the
// configuration's own adjacency word (sparseStore.words), and keeps,
// as one uint64 bit row per node:
//
//   - perm[u]: u's permitted partners (every other node on the
//     complete graph, the topology's row under a restricted one);
//   - row[u]: u's enabled partners, the nodes x for which
//     EffectiveOn(s_u, s_x, edge(u, x)) holds and {u, x} is permitted.
//
// Enabledness is a property of the pair, so the rows are symmetric
// (x ∈ row[u] ⇔ u ∈ row[x]) and Σ|row[u]| = 2·enabled. Per state it
// keeps the node mask mask[s] and two partner masks: onEdge[a] holds
// the nodes x with EffectiveOn(a, s_x, true), offEdge[a] those with
// EffectiveOn(a, s_x, false). A node changing state moves its bit in
// O(|Q|) word operations, after which a row is two ANDs and an OR:
//
//	row[u] = (onEdge[s_u] & adj[u] | offEdge[s_u] &^ adj[u]) & perm[u]
//
// An effective landing on {u, v} changes the enabledness of pairs
// through u or v only, so it recomputes row[u] and row[v]; the XOR of
// each new row against its old one names the partners whose column
// bit flips, which keeps the rows symmetric without a scan.
//
// Sampling draws r < 2·enabled and walks the row popcounts to the
// r-th enabled ordered pair (u, v): a uniform enabled pair in uniform
// orientation — the law the census index gets from a class draw, a
// member draw and an orientation coin — with no rejection and no
// edge-store probe. The edge-enabled count the edge-quiescence gate
// reads is not maintained; it is counted from the masks in O(n + |Q|²)
// when a detector check asks for it.
//
// Like the census index it is bound to the Config it was built from
// and must be told of every effective interaction (update) and every
// out-of-band write (nodeChanged, edgeChanged, through a Mutator). The
// swap-run tiers need the census, so a batch run served by this index
// steps every landing exactly.
type bitIndex struct {
	cfg   *Config
	proto *Protocol

	// effOn[a] and effOff[a] list the states t with EffectiveOn(a, t,
	// edge) for edge = true and false; edgeOn and edgeOff do the same
	// for EdgeEffectiveOn. Rebuilt when the protocol changes.
	effOn, effOff   [][]State
	edgeOn, edgeOff [][]State

	mask, onEdge, offEdge []uint64

	perm, row [bitRowNodes]uint64
	enabled   int64
}

// reset rebinds the index to cfg and rebuilds it in place in
// O(n·|Q| + permitted pairs), reusing the per-state arrays when the
// protocol is the previous run's.
func (bx *bitIndex) reset(cfg *Config) {
	n := cfg.n
	if n > bitRowNodes {
		panic(fmt.Sprintf("core: the bit-row index supports populations up to %d, got %d", bitRowNodes, n))
	}
	bx.cfg = cfg
	if bx.proto != cfg.proto {
		bx.rebuildLists(cfg.proto)
	}
	clear(bx.mask)
	clear(bx.onEdge)
	clear(bx.offEdge)
	for u, s := range cfg.nodes {
		bx.mask[s] |= 1 << u
	}
	// EffectiveOn is symmetric in its two states, so t's list names
	// exactly the states a whose partner masks hold t's nodes.
	for t, m := range bx.mask {
		if m == 0 {
			continue
		}
		for _, a := range bx.effOn[t] {
			bx.onEdge[a] |= m
		}
		for _, a := range bx.effOff[t] {
			bx.offEdge[a] |= m
		}
	}
	all := ^uint64(0) >> (bitRowNodes - n)
	for u := 0; u < n; u++ {
		if t := cfg.topo; t != nil {
			var p uint64
			for _, x := range t.adj[u] {
				p |= 1 << x
			}
			bx.perm[u] = p
		} else {
			bx.perm[u] = all &^ (1 << u)
		}
	}
	clear(bx.row[n:])
	var twice int
	for u := 0; u < n; u++ {
		bx.row[u] = bx.rowOf(u)
		twice += bits.OnesCount64(bx.row[u])
	}
	bx.enabled = int64(twice / 2)
}

// rebuildLists caches protocol p's effectiveness lists and sizes the
// per-state masks.
func (bx *bitIndex) rebuildLists(p *Protocol) {
	q := p.Size()
	bx.proto = p
	bx.effOn, bx.effOff = resizeLists(bx.effOn, q), resizeLists(bx.effOff, q)
	bx.edgeOn, bx.edgeOff = resizeLists(bx.edgeOn, q), resizeLists(bx.edgeOff, q)
	for a := 0; a < q; a++ {
		for t := 0; t < q; t++ {
			sa, st := State(a), State(t)
			if p.EffectiveOn(sa, st, true) {
				bx.effOn[a] = append(bx.effOn[a], st)
			}
			if p.EffectiveOn(sa, st, false) {
				bx.effOff[a] = append(bx.effOff[a], st)
			}
			if p.EdgeEffectiveOn(sa, st, true) {
				bx.edgeOn[a] = append(bx.edgeOn[a], st)
			}
			if p.EdgeEffectiveOn(sa, st, false) {
				bx.edgeOff[a] = append(bx.edgeOff[a], st)
			}
		}
	}
	if cap(bx.mask) < q {
		bx.mask = make([]uint64, q)
		bx.onEdge = make([]uint64, q)
		bx.offEdge = make([]uint64, q)
	}
	bx.mask, bx.onEdge, bx.offEdge = bx.mask[:q], bx.onEdge[:q], bx.offEdge[:q]
}

// resizeLists returns q empty lists, reusing dst's rows.
func resizeLists(dst [][]State, q int) [][]State {
	if cap(dst) < q {
		dst = append(dst[:cap(dst)], make([][]State, q-cap(dst))...)
	}
	dst = dst[:q]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	return dst
}

// rowOf computes node u's enabled-partner row from the masks.
func (bx *bitIndex) rowOf(u int) uint64 {
	s := bx.cfg.nodes[u]
	a := bx.cfg.store.words[u]
	return (bx.onEdge[s]&a | bx.offEdge[s]&^a) & bx.perm[u]
}

// move shifts node w's bit from state from to state to in the state
// and partner masks.
func (bx *bitIndex) move(w int, from, to State) {
	b := uint64(1) << w
	bx.mask[from] &^= b
	bx.mask[to] |= b
	for _, a := range bx.effOn[from] {
		bx.onEdge[a] &^= b
	}
	for _, a := range bx.effOff[from] {
		bx.offEdge[a] &^= b
	}
	for _, a := range bx.effOn[to] {
		bx.onEdge[a] |= b
	}
	for _, a := range bx.effOff[to] {
		bx.offEdge[a] |= b
	}
}

// refresh recomputes row[u] and flips u's column bit in the row of
// every partner whose enabledness with u changed.
func (bx *bitIndex) refresh(u int) {
	row := bx.rowOf(u)
	old := bx.row[u]
	diff := row ^ old
	if diff == 0 {
		return
	}
	bx.row[u] = row
	bx.enabled += int64(bits.OnesCount64(row) - bits.OnesCount64(old))
	b := uint64(1) << u
	for ; diff != 0; diff &= diff - 1 {
		bx.row[bits.TrailingZeros64(diff)] ^= b
	}
}

func (bx *bitIndex) enabledPairs() int64 { return bx.enabled }

// edgeEnabledPairs counts the permitted pairs on which some transition
// changes the edge, from the state masks: O(n + Σ_a |edgeOn[a]| +
// |edgeOff[a]|) word operations over the states present.
func (bx *bitIndex) edgeEnabledPairs() int64 {
	var twice int
	adj := bx.cfg.store.words
	for s, nodes := range bx.mask {
		if nodes == 0 {
			continue
		}
		var on, off uint64
		for _, t := range bx.edgeOn[s] {
			on |= bx.mask[t]
		}
		for _, t := range bx.edgeOff[s] {
			off |= bx.mask[t]
		}
		for ; nodes != 0; nodes &= nodes - 1 {
			u := bits.TrailingZeros64(nodes)
			a := adj[u]
			twice += bits.OnesCount64((on&a | off&^a) & bx.perm[u])
		}
	}
	return int64(twice / 2)
}

// sample returns a uniformly random enabled pair in uniform
// orientation, and whether it is an active edge. It must not be called
// when no pair is enabled.
func (bx *bitIndex) sample(rng *RNG) (u, v int, edge bool) {
	r := rng.IntN(int(2 * bx.enabled))
	row := bx.row[0]
	for c := bits.OnesCount64(row); r >= c; c = bits.OnesCount64(row) {
		r -= c
		u++
		row = bx.row[u]
	}
	v = selectBit(row, r)
	return u, v, bx.cfg.store.words[u]>>v&1 == 1
}

// selectBit returns the position of the r-th set bit of w (from 0,
// counting up from the lowest): two halvings by popcount, then at most
// 15 clears of the lowest bit.
func selectBit(w uint64, r int) int {
	pos := 0
	if c := bits.OnesCount32(uint32(w)); r >= c {
		r -= c
		w >>= 32
		pos = 32
	}
	if c := bits.OnesCount16(uint16(w)); r >= c {
		r -= c
		w >>= 16
		pos += 16
	}
	for ; r > 0; r-- {
		w &= w - 1
	}
	return pos + bits.TrailingZeros64(w)
}

// update refreshes the index after an effective interaction on the
// pair {u, v}: a node whose state moved shifts its mask bits, and the
// rows of u and v are recomputed (an edge change is already in the
// configuration's words). O(|Q| + popcount of the row changes).
func (bx *bitIndex) update(u, v int, beforeU, beforeV State, _, _ bool) {
	nodes := bx.cfg.nodes
	if s := nodes[u]; s != beforeU {
		bx.move(u, beforeU, s)
	}
	if s := nodes[v]; s != beforeV {
		bx.move(v, beforeV, s)
	}
	bx.refresh(u)
	bx.refresh(v)
}

// nodeChanged refreshes the index after an out-of-band write to node
// u's state; before is the state u held when the index was last
// consistent.
func (bx *bitIndex) nodeChanged(u int, before State) {
	after := bx.cfg.nodes[u]
	if after == before {
		return
	}
	bx.move(u, before, after)
	bx.refresh(u)
}

// edgeChanged refreshes the index after an out-of-band toggle of edge
// {u, v}: only that pair's enabledness can change, and refreshing u's
// row fixes v's column.
func (bx *bitIndex) edgeChanged(u, _ int) {
	bx.refresh(u)
}
