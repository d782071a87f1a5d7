package core

import (
	"testing"
)

// batchProtocols is the index battery plus a protocol whose hot rule
// is a deterministic edge swap — the batch kernel's target shape,
// which the shared battery lacks.
func batchProtocols(t *testing.T) map[string]*Protocol {
	t.Helper()
	m := indexProtocols(t)
	m["walker"] = MustProtocol("walker", []string{"q0", "q2", "w"}, 0, nil, []Rule{
		{A: 0, B: 0, Edge: false, OutA: 1, OutB: 2, OutEdge: true},
		{A: 2, B: 1, Edge: true, OutA: 1, OutB: 2, OutEdge: true}, // the swap
		{A: 2, B: 0, Edge: false, OutA: 1, OutB: 1, OutEdge: true},
	})
	return m
}

// verifyBatchIndex cross-checks every cached quantity of the census
// index against brute-force scans: the enabled totals, the
// per-sub-bucket weights, the per-class active-edge counts it
// maintains (effMask ≠ 0 only — the others are deliberately
// unmaintained), the edge list plus mirror structure of every listed
// class, and — under a restricted topology — the permitted-pair census
// with its slot map. Brute force counts only permitted pairs, so it is
// also the O(n²) reference for the topology-restricted weights.
func verifyBatchIndex(t *testing.T, bi *batchIndex, cfg *Config) {
	t.Helper()
	n := cfg.N()
	p := cfg.Protocol()
	q := p.Size()
	topo := cfg.topo
	var enabled, edgeEnabled int64
	w := make([]int64, 2*q*q)
	we := make([]int64, 2*q*q)
	edgeCount := make([]int64, q*q)
	pairCnt := make([]int64, q*q)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			a, b := cfg.Node(u), cfg.Node(v)
			if a > b {
				a, b = b, a
			}
			id := int(a)*q + int(b)
			e := cfg.Edge(u, v)
			if topo != nil && !topo.Contains(u, v) {
				if e {
					t.Fatalf("active edge {%d,%d} outside the topology", u, v)
				}
				continue
			}
			pairCnt[id]++
			if e {
				edgeCount[id]++
			}
			if p.EffectiveOn(a, b, e) {
				enabled++
				w[2*id+boolToInt(e)]++
			}
			if p.EdgeEffectiveOn(a, b, e) {
				edgeEnabled++
				we[2*id+boolToInt(e)]++
			}
		}
	}
	if bi.enabled != enabled {
		t.Fatalf("enabled = %d, brute force %d", bi.enabled, enabled)
	}
	if bi.edgeEnabled != edgeEnabled {
		t.Fatalf("edgeEnabled = %d, brute force %d", bi.edgeEnabled, edgeEnabled)
	}
	if (bi.enabled == 0) != cfg.Quiescent() || (bi.edgeEnabled == 0) != cfg.EdgeQuiescent() {
		t.Fatalf("quiescence gates (%v, %v) disagree with the scans (%v, %v)",
			bi.enabled == 0, bi.edgeEnabled == 0, cfg.Quiescent(), cfg.EdgeQuiescent())
	}
	listedEdges := 0
	for id := 0; id < q*q; id++ {
		if id/q > id%q {
			continue // classes live at a ≤ b
		}
		if bi.w[2*id] != w[2*id] || bi.w[2*id+1] != w[2*id+1] {
			t.Fatalf("class %d weights = (%d,%d), brute force (%d,%d)",
				id, bi.w[2*id], bi.w[2*id+1], w[2*id], w[2*id+1])
		}
		if bi.we[2*id] != we[2*id] || bi.we[2*id+1] != we[2*id+1] {
			t.Fatalf("class %d edge-enabled weights = (%d,%d), brute force (%d,%d)",
				id, bi.we[2*id], bi.we[2*id+1], we[2*id], we[2*id+1])
		}
		if bi.effMask[id] != 0 && bi.edgeCount[id] != edgeCount[id] {
			t.Fatalf("class %d edge count = %d, brute force %d", id, bi.edgeCount[id], edgeCount[id])
		}
		if topo != nil {
			verifyPairCensus(t, bi, cfg, id, pairCnt[id])
		}
		if !bi.listed[id] {
			if len(bi.edgeList[id]) != 0 {
				t.Fatalf("unlisted class %d carries %d list entries", id, len(bi.edgeList[id]))
			}
			continue
		}
		if int64(len(bi.edgeList[id])) != edgeCount[id] {
			t.Fatalf("listed class %d holds %d edges, brute force %d", id, len(bi.edgeList[id]), edgeCount[id])
		}
		for slot, key := range bi.edgeList[id] {
			u, v := int(key>>32), int(key&0xffffffff)
			if u >= v {
				t.Fatalf("class %d slot %d: key order (%d,%d)", id, slot, u, v)
			}
			if !cfg.Edge(u, v) {
				t.Fatalf("class %d lists inactive edge {%d,%d}", id, u, v)
			}
			if got := bi.classID(cfg.Node(u), cfg.Node(v)); got != id {
				t.Fatalf("edge {%d,%d} listed in class %d but classifies as %d", u, v, id, got)
			}
			found := 0
			for _, me := range mirrorEntries(bi, u) {
				if me.other == int32(v) {
					if int(me.slot) != slot {
						t.Fatalf("edge {%d,%d} mirror slot %d, want %d", u, v, me.slot, slot)
					}
					found++
				}
			}
			if found != 1 {
				t.Fatalf("edge {%d,%d} has %d mirror entries, want 1", u, v, found)
			}
		}
		listedEdges += len(bi.edgeList[id])
	}
	// Every mirror entry belongs to a listed edge (each edge was found
	// once above), and a spill flag always points at a non-empty row.
	entries := 0
	for u := 0; u < n; u++ {
		for _, me := range mirrorEntries(bi, u) {
			if int(me.other) <= u {
				t.Fatalf("node %d mirrors edge to %d; entries live at the lower endpoint", u, me.other)
			}
			entries++
		}
		if p := bi.mspill[u]; p != 0 && len(bi.mpool.rows[p-1]) == 0 {
			t.Fatalf("node %d flags an empty mirror spill row", u)
		}
	}
	if entries != listedEdges {
		t.Fatalf("mirror holds %d entries for %d listed edges", entries, listedEdges)
	}
}

// mirrorEntries returns node u's mirror entries: the occupied inline
// entries, then its spill row.
func mirrorEntries(bi *batchIndex, u int) []mirrorEntry {
	var out []mirrorEntry
	for _, me := range bi.mirror[u] {
		if me.other != 0 {
			out = append(out, me)
		}
	}
	if p := bi.mspill[u]; p != 0 {
		out = append(out, bi.mpool.rows[p-1]...)
	}
	return out
}

// verifyPairCensus checks class id's permitted-pair census: the count
// against brute force (want), and every listed pair permitted, in the
// class, and located by its slot entry. Classes no rule reads keep no
// census.
func verifyPairCensus(t *testing.T, bi *batchIndex, cfg *Config, id int, want int64) {
	t.Helper()
	if bi.effMask[id] == 0 {
		if bi.pairCnt[id] != 0 || len(bi.pairList[id]) != 0 {
			t.Fatalf("inert class %d carries a pair census (%d, %d entries)", id, bi.pairCnt[id], len(bi.pairList[id]))
		}
		return
	}
	if bi.pairCnt[id] != want || int64(len(bi.pairList[id])) != want {
		t.Fatalf("class %d permitted pairs = %d (%d listed), brute force %d", id, bi.pairCnt[id], len(bi.pairList[id]), want)
	}
	for slot, key := range bi.pairList[id] {
		u, v := int(key>>32), int(key&0xffffffff)
		if u >= v || !cfg.topo.Contains(u, v) {
			t.Fatalf("class %d slot %d lists (%d,%d), not a permitted pair in key order", id, slot, u, v)
		}
		if got := bi.classID(cfg.Node(u), cfg.Node(v)); got != id {
			t.Fatalf("pair {%d,%d} listed in class %d but classifies as %d", u, v, id, got)
		}
		if got := bi.pairSlot[bi.pairPos(u, v)]; int(got) != slot {
			t.Fatalf("pair {%d,%d} at slot %d, slot map says %d", u, v, slot, got)
		}
	}
}

// snapshotWeights copies the cached sub-bucket weight vector.
func snapshotWeights(bi *batchIndex) []int64 {
	out := make([]int64, 0, len(bi.w)+len(bi.we))
	out = append(out, bi.w...)
	return append(out, bi.we...)
}

func weightsEqual(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchIndexTracksApply drives each battery protocol with random
// interactions through Config.Apply + batchIndex.Update and verifies
// the full index against brute force after every effective step —
// including the census-generation law: gen advances exactly when some
// cached weight changes value.
func TestBatchIndexTracksApply(t *testing.T) {
	t.Parallel()
	for name, p := range batchProtocols(t) {
		p := p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 12
			rng := NewRNG(7)
			cfg := NewConfig(p, n)
			bi := newBatchIndex(cfg)
			verifyBatchIndex(t, bi, cfg)
			for step := 0; step < 2000; step++ {
				u, v := rng.Pair(n)
				beforeU, beforeV := cfg.Node(u), cfg.Node(v)
				before := snapshotWeights(bi)
				genBefore := bi.gen
				effective, edgeChanged := cfg.Apply(u, v, rng)
				if !effective {
					continue
				}
				bi.Update(u, v, beforeU, beforeV, edgeChanged)
				verifyBatchIndex(t, bi, cfg)
				changed := !weightsEqual(before, snapshotWeights(bi))
				bumped := bi.gen != genBefore
				if changed != bumped {
					t.Fatalf("step %d: weights changed=%v but gen bumped=%v", step, changed, bumped)
				}
			}
		})
	}
}

// TestBatchIndexApplySwap exercises the swap kernel's index side
// directly: walker-protocol configurations where landings on
// the swap class are applied through applySwap (states exchanged in
// place, no Config.Apply), interleaved with ordinary rule
// applications, with a full brute-force verification after each.
func TestBatchIndexApplySwap(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["walker"]
	if !p.Batchable() {
		t.Fatal("walker protocol must be batchable")
	}
	const n = 12
	rng := NewRNG(31)
	cfg := NewConfig(p, n)
	bi := newBatchIndex(cfg)
	swaps, generic := 0, 0
	for step := 0; step < 4000; step++ {
		if bi.enabled == 0 {
			break
		}
		u, v, _ := bi.sample(rng)
		a, b := cfg.Node(u), cfg.Node(v)
		if cfg.Edge(u, v) && bi.swapCell[bi.classID(a, b)] {
			// The kernel path: exchange states, patch the index.
			cfg.nodes[u], cfg.nodes[v] = b, a
			bi.applySwap(u, v, a, b)
			swaps++
		} else {
			effective, edgeChanged := cfg.Apply(u, v, rng)
			if effective {
				bi.Update(u, v, a, b, edgeChanged)
			}
			generic++
		}
		verifyBatchIndex(t, bi, cfg)
	}
	if swaps == 0 || generic == 0 {
		t.Fatalf("run exercised %d swaps and %d generic steps; want both > 0", swaps, generic)
	}
}

// TestBatchIndexReset pins the workspace path: an index dirtied by one
// run and reset onto a fresh configuration must verify exactly like a
// newly built one, including after a protocol change.
func TestBatchIndexReset(t *testing.T) {
	t.Parallel()
	protos := batchProtocols(t)
	walker, toggle := protos["walker"], protos["toggle"]
	const n = 12
	rng := NewRNG(5)
	cfg := NewConfig(walker, n)
	bi := newBatchIndex(cfg)
	for step := 0; step < 500; step++ {
		u, v := rng.Pair(n)
		a, b := cfg.Node(u), cfg.Node(v)
		effective, edgeChanged := cfg.Apply(u, v, rng)
		if effective {
			bi.Update(u, v, a, b, edgeChanged)
		}
	}
	// Reset onto a fresh same-protocol configuration…
	cfg2 := NewConfig(walker, n)
	bi.reset(cfg2)
	verifyBatchIndex(t, bi, cfg2)
	if bi.gen != 0 {
		t.Fatalf("fresh reset left gen = %d", bi.gen)
	}
	// …and onto a different protocol with a different state count.
	cfg3 := NewConfig(toggle, n)
	bi.reset(cfg3)
	verifyBatchIndex(t, bi, cfg3)
}

// TestBatchIndexMirrorSpill extends the brute-force check to a node
// with more listed edges than its two inline mirror entries: a star
// centre in state a whose edges to b leaves all sit in the listed class
// {a, b} of the toggle protocol. Out-of-band edge toggles and leaf
// state writes (through edgeChanged and nodeChanged) and ordinary
// interactions drain and refill the centre's spill row across the
// 2↔3 boundary, with a full verification after every change.
func TestBatchIndexMirrorSpill(t *testing.T) {
	t.Parallel()
	p := batchProtocols(t)["toggle"]
	const n = 10
	cfg := NewConfig(p, n)
	for v := 1; v < n; v++ {
		cfg.SetNode(v, 1)
		cfg.SetEdge(0, v, true)
	}
	bi := newBatchIndex(cfg)
	verifyBatchIndex(t, bi, cfg)
	if bi.mspill[0] == 0 {
		t.Fatal("a star centre with nine listed edges keeps no mirror spill")
	}
	rng := NewRNG(13)
	withSpill, without := 0, 0
	for step := 0; step < 3000; step++ {
		switch x := 1 + rng.IntN(n-1); rng.IntN(4) {
		case 0, 1:
			cfg.SetEdge(0, x, !cfg.Edge(0, x))
			bi.edgeChanged(0, x)
		case 2:
			before := cfg.Node(x)
			cfg.SetNode(x, 1-before)
			bi.nodeChanged(x, before)
		default:
			u, v := rng.Pair(n)
			a, b := cfg.Node(u), cfg.Node(v)
			if effective, edgeChanged := cfg.Apply(u, v, rng); effective {
				bi.Update(u, v, a, b, edgeChanged)
			}
		}
		if cfg.Node(0) != 0 {
			// Keep the centre in state a, so its edges stay listed.
			cfg.SetNode(0, 0)
			bi.nodeChanged(0, 1)
		}
		verifyBatchIndex(t, bi, cfg)
		if bi.mspill[0] != 0 {
			withSpill++
		} else {
			without++
		}
	}
	if withSpill == 0 || without == 0 {
		t.Fatalf("the centre kept a spill row on %d steps and none on %d; want both", withSpill, without)
	}
}
