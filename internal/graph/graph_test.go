package graph

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestBasicOperations(t *testing.T) {
	t.Parallel()
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("fresh graph N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self-loop ignored
	g.AddEdge(-1, 3)
	g.AddEdge(3, 9)
	if g.M() != 1 {
		t.Fatalf("M=%d after duplicate/self/out-of-range inserts", g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(-1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 1 || g.Degree(4) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestNegativeOrder(t *testing.T) {
	t.Parallel()
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("negative order gave N=%d", g.N())
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	t.Parallel()
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	edges := g.Edges()
	want := [][2]int{{0, 2}, {1, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges %v, want %v", edges, want)
		}
	}
}

func TestDegreeSequence(t *testing.T) {
	t.Parallel()
	g := Star(5)
	seq := g.DegreeSequence()
	want := []int{1, 1, 1, 1, 4}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("degree sequence %v", seq)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	t.Parallel()
	g := Complete(5)
	sub, mapping := g.InducedSubgraph([]int{1, 3, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced N=%d M=%d", sub.N(), sub.M())
	}
	if mapping[0] != 1 || mapping[1] != 3 || mapping[2] != 4 {
		t.Fatalf("mapping %v", mapping)
	}
}

func TestCloneAndEqual(t *testing.T) {
	t.Parallel()
	g := Ring(6)
	c := g.Clone()
	if !g.Equal(c) || !c.Equal(g) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(0, 3)
	if g.Equal(c) {
		t.Fatal("clone mutation affected equality")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("clone shares storage")
	}
}

func TestFamilies(t *testing.T) {
	t.Parallel()
	if !Line(6).IsSpanningLine() {
		t.Fatal("Line(6) not a spanning line")
	}
	if !Ring(6).IsSpanningRing() {
		t.Fatal("Ring(6) not a spanning ring")
	}
	if !Star(6).IsSpanningStar() {
		t.Fatal("Star(6) not a spanning star")
	}
	if got := Complete(6).M(); got != 15 {
		t.Fatalf("K6 has %d edges", got)
	}
	if Ring(2).M() != 1 {
		t.Fatalf("Ring(2) should degrade to a single edge, got %v", Ring(2))
	}
}

func TestComponents(t *testing.T) {
	t.Parallel()
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should count as connected")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !Ring(9).Connected() {
		t.Fatal("ring not connected")
	}
}

func TestString(t *testing.T) {
	t.Parallel()
	s := Line(3).String()
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "0-1") {
		t.Fatalf("String() = %q", s)
	}
}

// TestGnpDensity checks the sampler's edge density concentrates
// around p.
func TestGnpDensity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 2))
	const n, trials = 40, 30
	total := 0
	for i := 0; i < trials; i++ {
		total += Gnp(n, 0.5, rng).M()
	}
	mean := float64(total) / trials
	want := 0.5 * float64(n*(n-1)/2)
	if mean < want*0.9 || mean > want*1.1 {
		t.Fatalf("G(n,1/2) density %.1f, want ≈ %.1f", mean, want)
	}
	if Gnp(n, 0, rng).M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	if g := Gnp(n, 1, rng); g.M() != n*(n-1)/2 {
		t.Fatal("G(n,1) not complete")
	}
}

func TestGnHalfUsesCoin(t *testing.T) {
	t.Parallel()
	calls := 0
	g := GnHalf(6, func() bool {
		calls++
		return calls%2 == 0
	})
	if calls != 15 {
		t.Fatalf("coin called %d times, want 15", calls)
	}
	if g.M() != 7 { // every second of 15 flips
		t.Fatalf("M=%d", g.M())
	}
}

func TestDOT(t *testing.T) {
	t.Parallel()
	dot := Line(3).DOT("my graph!", []string{"l", "", "r"})
	for _, want := range []string{"graph \"my_graph_\"", "n0 -- n1", "0:l", "label=\"1\""} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if !strings.Contains(New(0).DOT("", nil), "graph \"G\"") {
		t.Fatal("empty name not defaulted")
	}
}
