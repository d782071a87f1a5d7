package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// teeIndex forwards every notification to two indexes, so one Mutator
// keeps both consistent with one configuration.
type teeIndex struct{ a, b enabledIndex }

func (t teeIndex) enabledPairs() int64     { return t.a.enabledPairs() }
func (t teeIndex) edgeEnabledPairs() int64 { return t.a.edgeEnabledPairs() }
func (t teeIndex) sample(rng *RNG) (int, int, bool) {
	return t.a.sample(rng)
}
func (t teeIndex) update(u, v int, beforeU, beforeV State, edgeBefore, edgeChanged bool) {
	t.a.update(u, v, beforeU, beforeV, edgeBefore, edgeChanged)
	t.b.update(u, v, beforeU, beforeV, edgeBefore, edgeChanged)
}
func (t teeIndex) nodeChanged(u int, before State) {
	t.a.nodeChanged(u, before)
	t.b.nodeChanged(u, before)
}
func (t teeIndex) edgeChanged(u, v int) {
	t.a.edgeChanged(u, v)
	t.b.edgeChanged(u, v)
}

// randomTopology returns a G(n, p) topology with at least one pair.
func randomTopology(n int, p float64, rng *RNG) *Topology {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	if g.M() == 0 {
		g.AddEdge(0, n-1)
	}
	return NewTopology(g)
}

// verifyBitRows checks the bit-row index pair by pair against the
// protocol's effectiveness table and its two counts against brute
// force. With a census ci bound to the same configuration it also
// checks the census's counts, and the rows the census reads against
// the configuration's adjacency words.
func verifyBitRows(t *testing.T, bx *bitIndex, ci *batchIndex, cfg *Config) {
	t.Helper()
	var enabled, edgeEnabled int64
	for u := 0; u < cfg.n; u++ {
		for v := 0; v < cfg.n; v++ {
			permitted := u != v && (cfg.topo == nil || cfg.topo.Contains(u, v))
			a, b, e := cfg.nodes[u], cfg.nodes[v], cfg.Edge(u, v)
			want := permitted && cfg.proto.EffectiveOn(a, b, e)
			if got := bx.row[u]>>v&1 == 1; got != want {
				t.Fatalf("row[%d] bit %d = %v, want %v (states %d,%d edge %v)", u, v, got, want, a, b, e)
			}
			if ci != nil && slices.Contains(cfg.store.row(u), int32(v)) != e {
				t.Fatalf("row %d lists %d: %v, adjacency word says %v", u, v, !e, e)
			}
			if u < v && want {
				enabled++
			}
			if u < v && permitted && cfg.proto.EdgeEffectiveOn(a, b, e) {
				edgeEnabled++
			}
		}
	}
	if bx.enabledPairs() != enabled || bx.edgeEnabledPairs() != edgeEnabled {
		t.Fatalf("bit rows count %d enabled, %d edge-enabled; brute force %d, %d", bx.enabledPairs(), bx.edgeEnabledPairs(), enabled, edgeEnabled)
	}
	if ci != nil && (ci.enabledPairs() != enabled || ci.edgeEnabledPairs() != edgeEnabled) {
		t.Fatalf("census counts %d enabled, %d edge-enabled; brute force %d, %d", ci.enabledPairs(), ci.edgeEnabledPairs(), enabled, edgeEnabled)
	}
}

// TestBitRowIndexAgreesWithCensus drives the bit-row index and the
// state-class census, bound to one configuration, through random
// interactions and Mutator writes, on the complete graph and under a
// random topology, from n = 2 to the 64-node cut: after every change
// both must report the brute-force enabled and edge-enabled counts,
// and every bit row must match the effectiveness table pair by pair.
func TestBitRowIndexAgreesWithCensus(t *testing.T) {
	t.Parallel()
	protos := indexProtocols(t)
	protos["inject"] = injProtocol()
	for name, p := range protos {
		for _, n := range []int{2, 7, 33, bitRowNodes} {
			for _, restricted := range []bool{false, true} {
				p, n, restricted := p, n, restricted
				label := fmt.Sprintf("%s/n=%d/complete", name, n)
				if restricted {
					label = fmt.Sprintf("%s/n=%d/gnp", name, n)
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					rng := NewRNG(uint64(n) + 3)
					cfg := NewConfig(p, n)
					if restricted {
						cfg.topo = randomTopology(n, 0.4, rng)
					}
					seedHalfEdges(cfg, cfg.topo, rng)
					bx, ci := new(bitIndex), newBatchIndex(cfg)
					bx.reset(cfg)
					mut := &Mutator{cfg: cfg, ix: teeIndex{bx, ci}}
					verifyBitRows(t, bx, ci, cfg)
					for step := 0; step < 600; step++ {
						switch r := rng.IntN(10); {
						case r == 0:
							mut.SetNode(rng.IntN(n), State(rng.IntN(p.Size())))
						case r == 1:
							u, v := rng.Pair(n)
							if cfg.topo != nil {
								u, v = cfg.topo.SamplePair(rng)
							}
							mut.SetEdge(u, v, rng.Coin())
						case bx.enabled > 0 && r < 6:
							// A landing the way indexedLoop makes one.
							u, v, edge := bx.sample(rng)
							beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
							if effective, edgeChanged := cfg.apply(u, v, edge, rng); effective {
								mut.ix.update(u, v, beforeU, beforeV, edge, edgeChanged)
							}
						default:
							u, v := rng.Pair(n)
							if cfg.topo != nil {
								u, v = cfg.topo.SamplePair(rng)
							}
							beforeU, beforeV := cfg.nodes[u], cfg.nodes[v]
							edge := cfg.Edge(u, v)
							if effective, edgeChanged := cfg.apply(u, v, edge, rng); effective {
								mut.ix.update(u, v, beforeU, beforeV, edge, edgeChanged)
							}
						}
						verifyBitRows(t, bx, ci, cfg)
					}
					// A reset rebuilds the same rows from the final
					// configuration.
					rows := bx.row
					bx.reset(cfg)
					if bx.row != rows {
						t.Fatal("rebuilt rows differ from the incrementally maintained ones")
					}
				})
			}
		}
	}
}

// TestBitIndexFollowsMutatorEdgeWrites: with no census bound, the
// configuration keeps adjacency words alone and the bit-row index
// reads them directly. Out-of-band edge writes through a Mutator must
// leave every row bit, both counts and every drawn pair's edge flag in
// agreement with Config.Edge.
func TestBitIndexFollowsMutatorEdgeWrites(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["toggle"]
	for _, n := range []int{3, 17, bitRowNodes} {
		rng := NewRNG(uint64(n))
		cfg := NewConfig(p, n)
		for u := 0; u < n; u++ {
			cfg.SetNode(u, State(rng.IntN(2)))
		}
		bx := new(bitIndex)
		bx.reset(cfg)
		mut := &Mutator{cfg: cfg, ix: bx}
		for step := 0; step < 400; step++ {
			u, v := rng.Pair(n)
			mut.SetEdge(u, v, rng.Coin())
			if cfg.store.rec != nil {
				t.Fatalf("n=%d: a store no census reads keeps rows", n)
			}
			verifyBitRows(t, bx, nil, cfg)
			if bx.enabled > 0 {
				if u, v, edge := bx.sample(rng); edge != cfg.Edge(u, v) {
					t.Fatalf("n=%d step %d: pair (%d,%d) drawn with edge %v", n, step, u, v, edge)
				}
			}
		}
	}
}

// TestBitRowIndexSampleUniform checks the bit-row draw against its
// law: every drawn pair is enabled, its edge bit is the pair's, and
// the ordered pairs are uniform (chi-square at α = 0.001), so the
// draw carries the orientation coin the census index tosses
// separately.
func TestBitRowIndexSampleUniform(t *testing.T) {
	t.Parallel()
	p := indexProtocols(t)["toggle"]
	for _, n := range []int{5, 40, bitRowNodes} {
		rng := NewRNG(uint64(n))
		cfg := NewConfig(p, n)
		for u := 0; u < n; u++ {
			cfg.SetNode(u, State(rng.IntN(2)))
		}
		seedHalfEdges(cfg, nil, rng)
		bx := new(bitIndex)
		bx.reset(cfg)
		ordered := 2 * bx.enabled
		if ordered < 4 {
			t.Fatalf("n=%d: only %d enabled ordered pairs", n, ordered)
		}
		// Cell k counts draws of the k-th enabled ordered pair in row
		// order.
		first := make([]int, n+1)
		for u := 0; u < n; u++ {
			first[u+1] = first[u] + bits.OnesCount64(bx.row[u])
		}
		draws := 40 * int(ordered)
		counts := make([]int64, ordered)
		for i := 0; i < draws; i++ {
			u, v, edge := bx.sample(rng)
			if bx.row[u]>>v&1 == 0 {
				t.Fatalf("n=%d: drew disabled pair (%d,%d)", n, u, v)
			}
			if edge != cfg.Edge(u, v) {
				t.Fatalf("n=%d: pair (%d,%d) drawn with edge %v", n, u, v, edge)
			}
			counts[first[u]+bits.OnesCount64(bx.row[u]&(1<<v-1))]++
		}
		expected := float64(draws) / float64(ordered)
		var stat float64
		for _, c := range counts {
			d := float64(c) - expected
			stat += d * d / expected
		}
		if crit := stats.ChiSquareCritical(int(ordered)-1, 0.001); stat > crit {
			t.Fatalf("n=%d: ordered-pair chi-square %.1f > critical %.1f (%d cells)", n, stat, crit, ordered)
		}
	}
}

// TestSelectBit pins selectBit against clearing low bits one by one.
func TestSelectBit(t *testing.T) {
	t.Parallel()
	rng := NewRNG(9)
	for trial := 0; trial < 2000; trial++ {
		w := rng.Uint64() & rng.Uint64()
		if trial%3 == 0 {
			w = rng.Uint64()
		}
		if w == 0 {
			continue
		}
		r := rng.IntN(bits.OnesCount64(w))
		x := w
		for i := 0; i < r; i++ {
			x &= x - 1
		}
		if got, want := selectBit(w, r), bits.TrailingZeros64(x); got != want {
			t.Fatalf("selectBit(%#x, %d) = %d, want %d", w, r, got, want)
		}
	}
}

// TestIndexSelectionCut pins where Workspace.index cuts: bit rows up to
// 64 nodes, the census from 65 on and on a census-only workspace, and
// a run builds only the index it uses.
func TestIndexSelectionCut(t *testing.T) {
	t.Parallel()
	p := injProtocol()
	for _, tc := range []struct {
		n          int
		censusOnly bool
		wantBits   bool
	}{{2, false, true}, {64, false, true}, {65, false, false}, {64, true, false}} {
		ws := &Workspace{censusOnly: tc.censusOnly}
		if _, err := Run(p, tc.n, Options{Seed: 1, Engine: EngineSparse, MaxSteps: 100, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		if gotBits := ws.bits != nil; gotBits != tc.wantBits || (ws.census != nil) == tc.wantBits {
			t.Fatalf("n=%d censusOnly=%v: built bit rows %v, census %v; want bit rows %v only",
				tc.n, tc.censusOnly, ws.bits != nil, ws.census != nil, tc.wantBits)
		}
	}
}
