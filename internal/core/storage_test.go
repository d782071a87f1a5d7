package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestStorageStrategySelection pins the adjacency rows' independence
// across Clone, copyFrom and resetDefault. A clone packs its rows into
// one backing array, each capped at its own length, so appending to
// one row of a clone must reallocate that row alone: it never writes
// into the neighbouring rows or into the source. copyFrom and
// resetDefault reuse the receiver's rows and must leave the source
// untouched.
func TestStorageStrategySelection(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	const n = 8
	src := NewConfig(p, n)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}} {
		src.SetEdge(e[0], e[1], true)
	}
	want := src.String()

	clone := src.Clone()
	// Row 1 is full to its cap; growing it must not spill into row 2.
	clone.SetEdge(1, 7, true)
	clone.SetEdge(2, 6, true)
	clone.SetEdge(0, 6, true)
	if got := src.String(); got != want {
		t.Fatalf("clone appends leaked into the source:\n got %s\nwant %s", got, want)
	}
	for u, wantRow := range [][]int{{1, 6}, {0, 2, 5, 7}, {1, 3, 6}, {2, 4}, {3}, {1}, {0, 2}, {1}} {
		if got := clone.ActiveNeighbors(u, nil); !slices.Equal(got, wantRow) {
			t.Fatalf("clone row %d = %v, want %v", u, got, wantRow)
		}
	}
	// Shrinking a row of the source must not show through the clone.
	src.SetEdge(1, 2, false)
	if !clone.Edge(1, 2) || !slices.Equal(clone.ActiveNeighbors(2, nil), []int{1, 3, 6}) {
		t.Fatal("source removal leaked into the clone")
	}
	src.SetEdge(1, 2, true)

	// copyFrom onto a configuration with longer rows, then mutate.
	dst := clone.Clone()
	dst.copyFrom(src)
	if got := dst.String(); got != want {
		t.Fatalf("copyFrom = %s, want %s", got, want)
	}
	dst.SetEdge(4, 5, true)
	dst.SetEdge(0, 1, false)
	if got := src.String(); got != want {
		t.Fatalf("copy mutations leaked into the source: %s", got)
	}
	if clone.Edge(4, 5) || !clone.Edge(0, 1) {
		t.Fatal("copy mutations leaked into the clone it was built from")
	}

	// resetDefault empties the rows in place; refilling them must not
	// reach the source or the clone.
	dst.resetDefault(p)
	if dst.ActiveEdges() != 0 || dst.String() != NewConfig(p, n).String() {
		t.Fatalf("reset left %d edges: %s", dst.ActiveEdges(), dst)
	}
	for u := 0; u+1 < n; u++ {
		dst.SetEdge(u, u+1, true)
	}
	if got := src.String(); got != want {
		t.Fatalf("reset refill leaked into the source: %s", got)
	}
	if clone.Edge(4, 5) || clone.Edge(5, 6) {
		t.Fatal("reset refill leaked into the clone")
	}
}

// TestSparseStoreMatchesDense drives a configuration and a triangular
// []bool reference model with the same random operation sequence and
// checks every read-side answer agrees: Edge, Degree, ActiveEdges,
// ActiveNeighbors, ForEachActiveEdge (through String) and Fingerprint,
// which must not depend on the order the edges were written in.
func TestSparseStoreMatchesDense(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["toggle"]
	const n = 13
	cfg := NewConfig(p, n)
	ref := make([]bool, pairCount(n))
	refEdge := func(u, v int) bool { return ref[pairIndex(n, u, v)] }
	rngOps := NewRNG(41)
	check := func(step int) {
		t.Helper()
		var edges []string
		m := 0
		for u := 0; u < n; u++ {
			var nbrs []int
			for v := 0; v < n; v++ {
				if v != u && refEdge(u, v) {
					nbrs = append(nbrs, v)
				}
			}
			m += len(nbrs)
			if cfg.Degree(u) != len(nbrs) {
				t.Fatalf("step %d: Degree(%d) %d, reference %d", step, u, cfg.Degree(u), len(nbrs))
			}
			for v := u + 1; v < n; v++ {
				if cfg.Edge(u, v) != refEdge(u, v) {
					t.Fatalf("step %d: Edge(%d,%d) %v, reference %v", step, u, v, cfg.Edge(u, v), refEdge(u, v))
				}
				if refEdge(u, v) {
					edges = append(edges, fmt.Sprintf("%d-%d", u, v))
				}
			}
			if got := cfg.ActiveNeighbors(u, nil); !slices.Equal(got, nbrs) {
				t.Fatalf("step %d: ActiveNeighbors(%d) %v, reference %v", step, u, got, nbrs)
			}
		}
		if cfg.ActiveEdges() != m/2 {
			t.Fatalf("step %d: ActiveEdges %d, reference %d", step, cfg.ActiveEdges(), m/2)
		}
		if got, want := cfg.String(), "{"+strings.Join(edges, " ")+"}"; !strings.HasSuffix(got, want) {
			t.Fatalf("step %d: String %s, reference edges %s", step, got, want)
		}
		// Rebuild the reference edge set in descending order: the
		// fingerprint is a function of the configuration alone.
		rebuilt := NewConfig(p, n)
		for u := n - 1; u >= 0; u-- {
			rebuilt.SetNode(u, cfg.Node(u))
			for v := n - 1; v > u; v-- {
				if refEdge(u, v) {
					rebuilt.SetEdge(v, u, true)
				}
			}
		}
		if cfg.Fingerprint() != rebuilt.Fingerprint() {
			t.Fatalf("step %d: Fingerprint depends on write order", step)
		}
	}
	check(-1)
	for step := 0; step < 1500; step++ {
		u, v := rngOps.Pair(n)
		if rngOps.Coin() {
			active := rngOps.Coin()
			cfg.SetEdge(u, v, active)
			ref[pairIndex(n, u, v)] = active
		} else {
			a, b, was := cfg.Node(u), cfg.Node(v), refEdge(u, v)
			eff, edgeChanged := cfg.Apply(u, v, NewRNG(uint64(step)))
			if edgeChanged != (cfg.Edge(u, v) != was) || eff != (edgeChanged || cfg.Node(u) != a || cfg.Node(v) != b) {
				t.Fatalf("step %d: Apply reported (%v,%v) for a change %v/%v→%v/%v, edge %v→%v",
					step, eff, edgeChanged, a, b, cfg.Node(u), cfg.Node(v), was, cfg.Edge(u, v))
			}
			ref[pairIndex(n, u, v)] = cfg.Edge(u, v)
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(1500)
}

// TestSparseForEachOrder pins ForEachActiveEdge's contract: each
// active edge exactly once, u < v, lexicographic order.
func TestSparseForEachOrder(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	cfg := NewConfig(p, 11)
	rng := NewRNG(17)
	for u := 0; u < 11; u++ {
		for v := u + 1; v < 11; v++ {
			cfg.SetEdge(u, v, rng.Coin())
		}
	}
	var got [][2]int
	cfg.ForEachActiveEdge(func(u, v int) { got = append(got, [2]int{u, v}) })
	if len(got) != cfg.ActiveEdges() {
		t.Fatalf("visited %d edges, counter says %d", len(got), cfg.ActiveEdges())
	}
	for i, e := range got {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not upper-triangular", e)
		}
		if i > 0 && !(got[i-1][0] < e[0] || (got[i-1][0] == e[0] && got[i-1][1] < e[1])) {
			t.Fatalf("edges out of order: %v before %v", got[i-1], e)
		}
	}
}

// TestSparseFingerprintDistinguishes pins the canonical encoding:
// distinct edge sets and node states must produce distinct
// fingerprints, equal ones equal fingerprints.
func TestSparseFingerprintDistinguishes(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["toggle"]
	a := NewConfig(p, 6)
	b := NewConfig(p, 6)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configurations fingerprint differently")
	}
	b.SetEdge(1, 4, true)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("edge difference not reflected in fingerprint")
	}
	c := b.Clone()
	if b.Fingerprint() != c.Fingerprint() {
		t.Fatal("clone fingerprints differently")
	}
	c.SetNode(2, 1)
	if b.Fingerprint() == c.Fingerprint() {
		t.Fatal("state difference not reflected in fingerprint")
	}
	// Gap-coded edges must not alias across rows: edge {0,1} versus
	// edge {1,2} with identical states.
	d := NewConfig(p, 3)
	e := NewConfig(p, 3)
	d.SetEdge(0, 1, true)
	e.SetEdge(1, 2, true)
	if d.Fingerprint() == e.Fingerprint() {
		t.Fatal("different edges alias in fingerprint")
	}
}

// TestSparseCloneIndependence checks that mutating a clone never leaks
// into the original through shared adjacency rows.
func TestSparseCloneIndependence(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["epidemic"]
	cfg := NewConfig(p, 8)
	cfg.SetEdge(0, 1, true)
	cfg.SetEdge(0, 2, true)
	clone := cfg.Clone()
	clone.SetEdge(0, 1, false)
	clone.SetEdge(3, 4, true)
	if !cfg.Edge(0, 1) || cfg.Edge(3, 4) {
		t.Fatal("clone mutation leaked into the original")
	}
	if cfg.ActiveEdges() != 2 || clone.ActiveEdges() != 2 {
		t.Fatalf("active counts wrong: %d, %d", cfg.ActiveEdges(), clone.ActiveEdges())
	}
	if !strings.Contains(cfg.String(), "0-1") {
		t.Fatalf("original lost its edge list: %s", cfg)
	}
}

// TestActiveEdgesCounter pins the O(1) counter against the stored edge
// set through a mixed SetEdge/Apply workload.
func TestActiveEdgesCounter(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["toggle"]
	cfg := NewConfig(p, 12)
	rng := NewRNG(29)
	for step := 0; step < 1000; step++ {
		u, v := rng.Pair(12)
		if rng.Coin() {
			cfg.SetEdge(u, v, rng.Coin())
		} else {
			cfg.Apply(u, v, rng)
		}
	}
	count := 0
	cfg.ForEachActiveEdge(func(_, _ int) { count++ })
	if cfg.ActiveEdges() != count {
		t.Fatalf("ActiveEdges() = %d, edge walk found %d", cfg.ActiveEdges(), count)
	}
}

// fuzzStoreFormats are the three ways FuzzSparseStore holds the same
// six-node edge set: adjacency words alone (n = 6), words with the
// rows a census reads kept beside them (keepRows), and sorted rows in
// a 70-node store, node i standing at place[i]. Six nodes make rows
// cross the inline/pool boundary at degree 2↔3 constantly.
var fuzzStoreFormats = []struct {
	name  string
	n     int
	rows  bool // keepRows on a word store
	place [6]int
}{
	{"words", 6, false, [6]int{0, 1, 2, 3, 4, 5}},
	{"words+rows", 6, true, [6]int{0, 1, 2, 3, 4, 5}},
	{"rows", 70, false, [6]int{0, 1, 31, 63, 64, 69}},
}

// FuzzSparseStore drives two stores of each format through set,
// clone, copyFrom and reset, checking after every operation that both
// match a reference adjacency set: get, row order, neighbors, forEach,
// set's change report, and, where the store keeps rows, the pool
// bookkeeping (a row is spilled iff its degree exceeds two, and the
// free list and the spilled rows partition the pool). Two stores make
// clone and copyFrom checkable for independence: a write to one must
// never show in the other.
func FuzzSparseStore(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 2, 3, 4, 0, 0, 5, 6, 1, 1, 5, 8, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 2, 0, 1, 2, 0, 3, 1, 0, 2, 6, 0, 0, 1, 0, 4})
	f.Add([]byte{0, 5, 4, 0, 5, 3, 0, 5, 2, 0, 5, 1, 9, 0, 0, 3, 5, 1, 7, 0, 0, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, ft := range fuzzStoreFormats {
			fuzzStoreOps(t, ft.n, ft.rows, &ft.place, ops)
		}
	})
}

// fuzzStoreOps runs one op sequence on two stores of n nodes, op node
// i standing at place[i]; rows makes word stores keep rows.
func fuzzStoreOps(t *testing.T, n int, rows bool, place *[6]int, ops []byte) {
	stores := [2]sparseStore{newSparseStore(n), newSparseStore(n)}
	if rows {
		stores[0].keepRows()
		stores[1].keepRows()
	}
	var refs [2][6][6]bool
	for len(ops) >= 3 {
		op, u, v := ops[0], int(ops[1])%6, int(ops[2])%6
		ops = ops[3:]
		t0, t1 := int(op&1), 1-int(op&1)
		s := &stores[t0]
		switch (op >> 1) % 5 {
		case 0, 1:
			if u == v {
				continue
			}
			active := (op>>1)%5 == 0
			if got, want := s.set(place[u], place[v], active), refs[t0][u][v] != active; got != want {
				t.Fatalf("n=%d: set(%d, %d, %v) reported change %v, reference %v", n, place[u], place[v], active, got, want)
			}
			refs[t0][u][v], refs[t0][v][u] = active, active
		case 2:
			stores[t1] = s.clone()
			if rows {
				stores[t1].keepRows()
			}
			refs[t1] = refs[t0]
		case 3:
			stores[t1].copyFrom(s)
			refs[t1] = refs[t0]
		case 4:
			s.reset()
			refs[t0] = [6][6]bool{}
		}
		for i := range stores {
			checkSparseStore(t, &stores[i], &refs[i], place, rows)
		}
	}
}

// checkSparseStore compares s with the reference adjacency matrix ref,
// whose node i stands at place[i] in s, and checks the record format:
// words at n ≤ bitRowNodes, rows above or where rows says they are
// kept, and the pool bookkeeping of the rows.
func checkSparseStore(t *testing.T, s *sparseStore, ref *[6][6]bool, place *[6]int, rows bool) {
	t.Helper()
	n := max(len(s.words), len(s.rec))
	if isWords := s.words != nil; isWords != (n <= bitRowNodes) {
		t.Fatalf("n=%d: word format %v", n, isWords)
	}
	if hasRows := s.rec != nil; hasRows != (rows || n > bitRowNodes) {
		t.Fatalf("n=%d: keeps rows %v", n, hasRows)
	}
	var want [][2]int
	inUse := make([]bool, len(s.pool.rows))
	for u := range ref {
		var nbrs []int
		for v := range ref[u] {
			pu, pv := place[u], place[v]
			if s.get(pu, pv) != ref[u][v] {
				t.Fatalf("n=%d: get(%d, %d) = %v, reference %v", n, pu, pv, !ref[u][v], ref[u][v])
			}
			if ref[u][v] {
				nbrs = append(nbrs, pv)
				if u < v {
					want = append(want, [2]int{pu, pv})
				}
			}
		}
		if got := s.neighbors(place[u], nil); !slices.Equal(got, nbrs) {
			t.Fatalf("n=%d: neighbors(%d) = %v, reference %v", n, place[u], got, nbrs)
		}
		if s.rec == nil {
			continue
		}
		var row []int
		for _, v := range s.row(place[u]) {
			row = append(row, int(v))
		}
		if !slices.Equal(row, nbrs) {
			t.Fatalf("n=%d: row(%d) = %v, reference %v", n, place[u], row, nbrs)
		}
		if isSpilled := s.rec[place[u]][1] == spilled; isSpilled != (len(nbrs) > 2) {
			t.Fatalf("n=%d: node %d of degree %d: spilled = %v", n, place[u], len(nbrs), isSpilled)
		} else if isSpilled {
			p := s.rec[place[u]][0]
			if inUse[p] {
				t.Fatalf("n=%d: pool row %d serves two nodes", n, p)
			}
			inUse[p] = true
		}
	}
	for _, p := range s.pool.free {
		if inUse[p] {
			t.Fatalf("n=%d: pool row %d is both free and in use", n, p)
		}
		inUse[p] = true
	}
	if !slices.Equal(inUse, slices.Repeat([]bool{true}, len(inUse))) {
		t.Fatalf("n=%d: pool rows %v neither free nor in use", n, inUse)
	}
	var got [][2]int
	s.forEach(func(u, v int) { got = append(got, [2]int{u, v}) })
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: forEach visits %v, reference %v", n, got, want)
	}
}

// TestSparseStoreInlineWritesAllocateNothing pins the allocation-free
// write path of both record formats: building and tearing down a line
// allocates nothing, in a 65-node row store (every row stays at
// degree ≤ 2, inline in its record) and in a 64-node word store.
func TestSparseStoreInlineWritesAllocateNothing(t *testing.T) {
	for _, n := range []int{bitRowNodes + 1, bitRowNodes} {
		s := newSparseStore(n)
		if (s.words != nil) != (n <= bitRowNodes) {
			t.Fatalf("n=%d: word format %v", n, s.words != nil)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for u := 0; u+1 < n; u++ {
				s.set(u, u+1, true)
			}
			for u := 0; u+1 < n; u += 2 {
				s.set(u, u+1, false)
			}
			s.reset()
		})
		if allocs != 0 {
			t.Fatalf("n=%d: line writes allocated %.1f times per run, want 0", n, allocs)
		}
	}
}

// TestCensusRowsOnWordStoreAllocateNothing: a census bound to a word
// store (a census-only workspace below 65 nodes) makes the store keep
// rows once; after that, rebuilding the census, reading every row and
// writing edges through a Mutator allocate nothing.
func TestCensusRowsOnWordStoreAllocateNothing(t *testing.T) {
	p := indexProtocols(t)["toggle"]
	const n = bitRowNodes
	cfg := NewConfig(p, n)
	for u := 0; u+1 < n; u++ {
		cfg.SetEdge(u, u+1, true)
	}
	for v := 3; v < n; v += 5 {
		cfg.SetEdge(0, v, true) // node 0's row spills to the pool
	}
	bi := newBatchIndex(cfg)
	mut := &Mutator{cfg: cfg, ix: bi}
	var sum int
	allocs := testing.AllocsPerRun(20, func() {
		bi.reset(cfg)
		for u := 0; u < n; u++ {
			for _, v := range cfg.store.row(u) {
				sum += int(v)
			}
		}
		mut.SetEdge(2, 7, true)
		mut.SetEdge(0, 3, false)
		mut.SetEdge(2, 7, false)
		mut.SetEdge(0, 3, true)
	})
	if allocs != 0 {
		t.Fatalf("census row reads and writes on a word store allocated %.1f times per run, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the 20 it counts.
	want := 0
	cfg.ForEachActiveEdge(func(u, v int) { want += u + v })
	if sum != 21*want {
		t.Fatalf("rows summed to %d over 21 runs, want %d", sum, 21*want)
	}
}
