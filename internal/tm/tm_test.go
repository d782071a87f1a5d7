package tm

import (
	"testing"

	"repro/internal/graph"
)

func TestGraphLanguages(t *testing.T) {
	t.Parallel()
	if !Connected().Decide(graph.Ring(5)) || Connected().Decide(graph.New(3)) {
		t.Fatal("connected decider wrong")
	}
	if !TriangleFree().Decide(graph.Ring(4)) || TriangleFree().Decide(graph.Complete(3)) {
		t.Fatal("triangle-free decider wrong")
	}
	if !MaxDegreeAtMost(2).Decide(graph.Ring(6)) || MaxDegreeAtMost(2).Decide(graph.Star(5)) {
		t.Fatal("degree decider wrong")
	}
	if !SpanningLineGraphs().Decide(graph.Line(4)) || SpanningLineGraphs().Decide(graph.Ring(4)) {
		t.Fatal("spanning-line decider wrong")
	}

	oneEdge := graph.New(3)
	oneEdge.AddEdge(0, 1)
	k4MinusEdge := graph.Ring(4) // C4 plus one chord
	k4MinusEdge.AddEdge(0, 2)
	for _, tc := range []struct {
		name                      string
		g                         *graph.Graph
		evenEdges, edge, complete bool
	}{
		{"empty", graph.New(4), true, false, false},
		{"one edge", oneEdge, false, true, false},
		{"C4", graph.Ring(4), true, true, false},
		{"C5", graph.Ring(5), false, true, false},
		{"K4", graph.Complete(4), true, true, true},
		{"K4 minus an edge", k4MinusEdge, false, true, false},
	} {
		if got := EvenEdges().Decide(tc.g); got != tc.evenEdges {
			t.Errorf("%s: even-edges = %v, want %v", tc.name, got, tc.evenEdges)
		}
		if got := HasEdge().Decide(tc.g); got != tc.edge {
			t.Errorf("%s: has-edge = %v, want %v", tc.name, got, tc.edge)
		}
		if got := CompleteGraph().Decide(tc.g); got != tc.complete {
			t.Errorf("%s: complete = %v, want %v", tc.name, got, tc.complete)
		}
	}
}

func TestHamiltonianPath(t *testing.T) {
	t.Parallel()
	h := HamiltonianPath()
	if !h.Decide(graph.Line(6)) || !h.Decide(graph.Ring(6)) || !h.Decide(graph.Complete(5)) {
		t.Fatal("hamiltonian graphs rejected")
	}
	if !h.Decide(graph.New(1)) || !h.Decide(graph.New(0)) {
		t.Fatal("trivial graphs rejected")
	}
	if h.Decide(graph.Star(5)) {
		t.Fatal("star of 5 accepted (no hamiltonian path)")
	}
	if h.Decide(graph.New(3)) {
		t.Fatal("edgeless graph accepted")
	}
}

func TestSpaceClassString(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		class SpaceClass
		want  string
	}{
		{LogSpace, "DGS(O(log n))"},
		{LinearSpace, "DGS(O(n))"},
		{QuadraticSpace, "DGS(O(n²))"},
	} {
		if got := tc.class.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
	if SpaceClass(42).String() == "" {
		t.Fatal("unknown class renders empty")
	}
}
