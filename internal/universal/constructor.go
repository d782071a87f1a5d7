package universal

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/tm"
)

// Result reports a generic-constructor run.
type Result struct {
	// Output is the constructed network on the useful space.
	Output *graph.Graph
	// UsefulNodes are the population indices carrying the output.
	UsefulNodes []int
	// Waste is n − |UsefulNodes|.
	Waste int
	// Attempts counts random-graph draws until the decider accepted
	// (the Fig. 3 loop).
	Attempts int
	// Steps is the total number of global interactions consumed:
	// real simulated steps for the partition and line phases plus
	// charged waits for every TM-controlled operation.
	Steps int64
	// PhaseSteps breaks Steps down by phase name, in execution order.
	PhaseSteps []PhaseStat
}

// PhaseStat is one pipeline phase's step count.
type PhaseStat struct {
	Name  string
	Steps int64
}

// LinearWasteHalf instantiates Theorem 14: DGS(O(n)) ⊆ PREL(⌊n/2⌋).
// It partitions the population into matched halves U and D, organizes
// U into a spanning line operated as a TM, and repeatedly draws a
// uniformly random graph on D until it belongs to lang; the result is
// released as the output. The decider may use linear space.
func LinearWasteHalf(lang tm.GraphLanguage, n int, seed uint64) (Result, error) {
	if n < 6 {
		return Result{}, errPopulationTooSmall
	}
	if lang.Space > LinearBudget {
		return Result{}, fmt.Errorf("universal: %s exceeds the linear-space budget of Theorem 14", lang.Space)
	}
	return runPipeline(lang, n, seed, pipelineHalf)
}

// LinearWasteThird instantiates Theorem 15: DGS(O(n²)) ⊆ PREL(⌊n/3⌋).
// The extra M third contributes Θ(n²) binary cells (its edges) as the
// simulated TM's work tape, trading useful space for simulation space.
func LinearWasteThird(lang tm.GraphLanguage, n int, seed uint64) (Result, error) {
	if n < 9 {
		return Result{}, errPopulationTooSmall
	}
	if lang.Space > QuadraticBudget {
		return Result{}, fmt.Errorf("universal: %s exceeds the quadratic-space budget of Theorem 15", lang.Space)
	}
	return runPipeline(lang, n, seed, pipelineThird)
}

// LogWaste instantiates Theorem 16: DGS(O(log n)) ⊆ PREL(n − log n).
// A spanning line counts the population, keeps its rightmost ⌈log n⌉
// cells as the simulator, and releases everyone else as useful space.
func LogWaste(lang tm.GraphLanguage, n int, seed uint64) (Result, error) {
	if n < 8 {
		return Result{}, errPopulationTooSmall
	}
	if lang.Space != tm.LogSpace {
		return Result{}, fmt.Errorf("universal: %s exceeds the logarithmic-space budget of Theorem 16", lang.Space)
	}
	return runPipeline(lang, n, seed, pipelineLog)
}

// Space budgets for the three pipelines, in tm.SpaceClass terms.
const (
	LinearBudget    = tm.LinearSpace
	QuadraticBudget = tm.QuadraticSpace
)

type pipelineKind int

const (
	pipelineHalf pipelineKind = iota + 1
	pipelineThird
	pipelineLog
)

func runPipeline(lang tm.GraphLanguage, n int, seed uint64, kind pipelineKind) (Result, error) {
	rng := core.NewRNG(seed ^ 0xd1b54a32d192ed03)
	var res Result
	record := func(name string, steps int64) {
		res.PhaseSteps = append(res.PhaseSteps, PhaseStat{Name: name, Steps: steps})
		res.Steps += steps
	}

	// Phase 1: partition (real protocol run). The log-waste pipeline
	// has no partition: the line spans everyone.
	var (
		part    partition
		partCfg *core.Config
	)
	switch kind {
	case pipelineHalf:
		p, det := PartitionUD()
		r, err := core.Run(p, n, core.Options{Seed: seed, Detector: det})
		if err != nil {
			return Result{}, err
		}
		if !r.Converged {
			return Result{}, fmt.Errorf("universal: U/D partition did not converge")
		}
		partCfg = r.Final
		part = classify(r.Final)
		record("partition-UD", r.Steps)
	case pipelineThird:
		p, det := PartitionUDM()
		r, err := core.Run(p, n, core.Options{Seed: seed, Detector: det})
		if err != nil {
			return Result{}, err
		}
		if !r.Converged {
			return Result{}, fmt.Errorf("universal: U/D/M partition did not converge")
		}
		partCfg = r.Final
		part = classify(r.Final)
		record("partition-UDM", r.Steps)
	case pipelineLog:
		part.u = make([]int, n)
		for i := range part.u {
			part.u[i] = i
		}
	}

	// Phase 2: spanning line over U (real protocol run with the rest
	// of the population inert).
	lineBase := protocols.SimpleGlobalLine()
	if len(part.u) >= 16 || kind == pipelineLog {
		// The O(n³) protocol keeps larger pipelines tractable; both
		// are proven correct and Section 6 only requires *some*
		// spanning-line constructor.
		lineBase = protocols.FastGlobalLine()
	}
	lineOrdered, lineRes, err := linePhase(lineBase, n, part.u, partCfg, seed+1)
	if err != nil {
		return Result{}, err
	}
	record("spanning-line", lineRes.Steps)

	charge := newChargeModel(n, rng)

	// Phase 3 (log-waste only): count the population by walking the
	// line, then release all but the rightmost ⌈log₂ n⌉ nodes.
	var useful []int
	var tapeLen int
	switch kind {
	case pipelineHalf:
		useful = part.d
		tapeLen = len(part.u)
	case pipelineThird:
		useful = part.d
		// The M set's edges form the work tape: Θ(n²) cells.
		tapeLen = len(part.m) * (len(part.m) - 1) / 2
		if tapeLen < 1 {
			return Result{}, errPopulationTooSmall
		}
	case pipelineLog:
		memLen := int(math.Ceil(math.Log2(float64(n))))
		if memLen < 1 {
			memLen = 1
		}
		// The counting pass walks n hops along the line and the
		// release walk n−1 back.
		charge.waits(int64(2*n - 1))
		useful = lineOrdered[:n-memLen]
		tapeLen = memLen
		record("count-and-release", charge.Steps())
	}

	// Phases 4–5: the Fig. 3 loop — draw a random graph on the useful
	// space, decide membership, retry on rejection. Every attempt
	// also scans the drawn graph as the decider's input (one more probe
	// pass) and pays the decider's own tape work.
	k := len(useful)
	decide := probeWaits(k) + deciderWaits(lang, k, tapeLen)
	before := charge.Steps()
	var out *graph.Graph
	for {
		res.Attempts++
		g := drawRandomGraph(charge, k)
		charge.waits(decide)
		if lang.Decide(g) {
			out = g
			break
		}
		if res.Attempts >= maxAttempts {
			return Result{}, fmt.Errorf("universal: decider %q rejected %d consecutive draws", lang.Name, res.Attempts)
		}
	}
	record("draw-and-decide", charge.Steps()-before)

	// Release phase: deactivate each useful node's tether (one
	// specific-pair interaction each).
	before = charge.Steps()
	charge.waits(int64(len(useful)))
	record("release", charge.Steps()-before)

	res.Output = out
	res.UsefulNodes = append([]int(nil), useful...)
	res.Waste = n - k
	return res, nil
}

// maxAttempts bounds the Fig. 3 retry loop: for the languages shipped
// here the acceptance probability under G(k, 1/2) is Ω(1) or the
// language is trivial, so hundreds of consecutive rejections indicate
// a bug, not bad luck.
const maxAttempts = 100_000

// deciderWaits is the decider's own tape work beyond the input scan,
// in specific-pair waits: one pass over its work tape per input bit,
// the canonical cost shape of the space-bounded simulations in
// Theorems 14–16. Charging every pass at full tape width over-counts
// most real deciders; a pass is capped at a log-factor of the tape
// (the bits of its cell count) to keep test-scale runs tractable while
// preserving the polynomial shape.
func deciderWaits(lang tm.GraphLanguage, k, tapeLen int) int64 {
	cells := tapeLen
	if lang.Space == tm.LogSpace {
		cells = bitsFor(tapeLen)
	}
	passes := int64(k) * int64(k-1) / 2
	return passes * int64(bitsFor(max(cells, 1)))
}

func bitsFor(x int) int {
	bits := 0
	for v := x; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
