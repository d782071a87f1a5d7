package universal

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
)

// Builder produces the target graph for a given useful-space size —
// the graph-constructing TM of Remark 2 ("on input g(n) the TM outputs
// a graph of order g(n)"). Returning nil means no target exists at
// that size.
type Builder func(k int) *graph.Graph

// DeterministicConstruct instantiates Remark 2: the class REL needs no
// randomness when the target family is TM-constructible. The pipeline
// partitions the population into matched halves, organizes U into a
// line-as-TM, and has the TM write the builder's graph onto D edge by
// edge via counter-addressed probes — no random drawing, no retry
// loop.
//
// This is how a NET constructs one specific network (the paper's
// closing question about, e.g., the Petersen graph on 10 useful
// nodes): supply a Builder that returns it.
func DeterministicConstruct(build Builder, n int, seed uint64) (Result, error) {
	if n < 6 {
		return Result{}, errPopulationTooSmall
	}
	var res Result
	record := func(name string, steps int64) {
		res.PhaseSteps = append(res.PhaseSteps, PhaseStat{Name: name, Steps: steps})
		res.Steps += steps
	}

	// Phase 1: U/D partition (real run).
	p, det := PartitionUD()
	r, err := core.Run(p, n, core.Options{Seed: seed, Detector: det})
	if err != nil {
		return Result{}, err
	}
	if !r.Converged {
		return Result{}, fmt.Errorf("universal: U/D partition did not converge")
	}
	part := classify(r.Final)
	record("partition-UD", r.Steps)

	// Phase 2: spanning line over U (real run).
	lineBase := protocols.SimpleGlobalLine()
	if len(part.u) >= 16 {
		lineBase = protocols.FastGlobalLine()
	}
	_, lineRes, err := linePhase(lineBase, n, part.u, r.Final, seed+1)
	if err != nil {
		return Result{}, err
	}
	record("spanning-line", lineRes.Steps)

	k := len(part.d)
	target := build(k)
	if target == nil {
		return Result{}, fmt.Errorf("universal: builder has no target of order %d", k)
	}
	if target.N() != k {
		return Result{}, fmt.Errorf("universal: builder returned order %d, want %d", target.N(), k)
	}

	// Phase 3: the TM walks every D pair once and writes the target
	// edge value (mark i, mark j, pair interaction, retract marks).
	rng := core.NewRNG(seed ^ 0x2545f4914f6cdd1d)
	charge := newChargeModel(n, rng)
	charge.waits(probeWaits(k))
	record("write-target", charge.Steps())

	// Phase 4: release the useful space.
	before := charge.Steps()
	charge.waits(int64(len(part.d)))
	record("release", charge.Steps()-before)

	res.Output = target.Clone()
	res.UsefulNodes = append([]int(nil), part.d...)
	res.Waste = n - k
	res.Attempts = 1
	return res, nil
}

// Ring-, clique- and Petersen-builders used by examples, tests and
// benchmarks.

// RingBuilder returns the spanning-ring family (defined for k ≥ 3).
func RingBuilder() Builder {
	return func(k int) *graph.Graph {
		if k < 3 {
			return nil
		}
		return graph.Ring(k)
	}
}

// CliqueBuilder returns the complete-graph family.
func CliqueBuilder() Builder {
	return func(k int) *graph.Graph { return graph.Complete(k) }
}

// PetersenBuilder returns the Petersen graph when the useful space is
// exactly 10 nodes — the paper's concluding example of a non-uniform
// target.
func PetersenBuilder() Builder {
	return func(k int) *graph.Graph {
		if k != 10 {
			return nil
		}
		g := graph.New(10)
		for i := 0; i < 5; i++ {
			g.AddEdge(i, (i+1)%5)
			g.AddEdge(5+i, 5+(i+2)%5)
			g.AddEdge(i, 5+i)
		}
		return g
	}
}
