// Package check is an exhaustive model checker for network
// constructors on small populations. It explores the full reachable
// configuration space (every interleaving any fair scheduler could
// produce, including every probabilistic branch) and verifies the
// paper's stabilization claims:
//
//  1. output-stability is machine-verified, not assumed: a
//     configuration counts as output-stable only if no configuration in
//     its forward closure has a different output graph;
//  2. from every reachable configuration an output-stable configuration
//     whose output satisfies the target predicate remains reachable —
//     which, under the paper's fairness condition, implies every fair
//     execution stabilizes to the target;
//  3. detector soundness: every configuration accepted by a protocol's
//     convergence detector is genuinely output-stable.
//
// This is strictly stronger than testing any finite set of schedules.
package check

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Options bounds the exploration.
type Options struct {
	// MaxConfigs aborts exploration when the reachable space exceeds
	// this bound (default 2,000,000).
	MaxConfigs int
	// Initial overrides the all-q0 initial configuration.
	Initial *core.Config
}

// Report summarizes a verification run.
type Report struct {
	// Reachable is the number of distinct reachable configurations.
	Reachable int
	// OutputStable is the number of reachable configurations whose
	// forward closure has a constant output graph.
	OutputStable int
	// TargetStable is the number of output-stable configurations whose
	// output satisfies the target predicate.
	TargetStable int
	// AllReachTarget reports whether every reachable configuration can
	// still reach a target-output-stable configuration.
	AllReachTarget bool
	// Counterexample describes a configuration violating the above, if
	// any.
	Counterexample string
}

// Space is the fully explored reachable configuration space of one
// protocol on one population size. Explore builds it once; Verify and
// DetectorSound then read it as often as needed.
type Space struct {
	configs  []*core.Config
	succs    [][]int32
	preds    [][]int32
	unstable []bool // true: forward closure changes the output graph
}

// Explore enumerates every configuration of p on n nodes reachable
// from the initial configuration, with each one's successors and
// whether its forward closure changes the output graph.
func Explore(p *core.Protocol, n int, opts Options) (*Space, error) {
	if n < 1 {
		return nil, errors.New("check: population size must be ≥ 1")
	}
	maxConfigs := opts.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = 2_000_000
	}
	maxConfigs = min(maxConfigs, math.MaxInt32) // ids are int32
	initial := opts.Initial
	if initial == nil {
		initial = core.NewConfig(p, n)
	} else {
		initial = initial.Clone()
	}

	index := map[string]int32{initial.Fingerprint(): 0}
	s := &Space{configs: []*core.Config{initial}}
	var out []int32
	for at := 0; at < len(s.configs); at++ {
		// Each outcome is applied to a scratch copy in place, cloned
		// only when unseen and reverted before the next one; the stored
		// configurations are never written, so they keep their packed
		// rows.
		cfg := s.configs[at].Clone()
		out = out[:0]
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				a, b, e := cfg.Node(u), cfg.Node(v), cfg.Edge(u, v)
				for _, o := range p.Outcomes(a, b, e) {
					cfg.SetNode(u, o.OutA)
					cfg.SetNode(v, o.OutB)
					cfg.SetEdge(u, v, o.OutEdge)
					fp := cfg.Fingerprint()
					id, ok := index[fp]
					if !ok {
						id = int32(len(s.configs))
						if int(id) >= maxConfigs {
							return nil, fmt.Errorf("check: reachable space exceeds %d configurations", maxConfigs)
						}
						index[fp] = id
						s.configs = append(s.configs, cfg.Clone())
					}
					out = append(out, id)
					cfg.SetNode(u, a)
					cfg.SetNode(v, b)
					cfg.SetEdge(u, v, e)
				}
			}
		}
		s.succs = append(s.succs, dedupe(out))
	}

	s.preds = invert(s.succs)

	// Output-instability is the least fixed point of "some successor
	// differs in output, or some successor is unstable".
	outFP := make([]string, len(s.configs))
	for i, cfg := range s.configs {
		outFP[i] = outputFingerprint(cfg)
	}
	s.unstable = make([]bool, len(s.configs))
	var queue []int32
	for i, ss := range s.succs {
		for _, j := range ss {
			if outFP[j] != outFP[i] {
				s.unstable[i] = true
				queue = append(queue, int32(i))
				break
			}
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range s.preds[j] {
			if !s.unstable[i] {
				s.unstable[i] = true
				queue = append(queue, i)
			}
		}
	}
	return s, nil
}

// Verify checks, over the explored space, that every fair execution
// stabilizes to an output satisfying target.
func (s *Space) Verify(target func(cfg *core.Config) bool) Report {
	rep := Report{Reachable: len(s.configs)}
	var queue []int32
	for i, cfg := range s.configs {
		if s.unstable[i] {
			continue
		}
		rep.OutputStable++
		if target(cfg) {
			rep.TargetStable++
			queue = append(queue, int32(i))
		}
	}

	// Backward reachability from the target-stable set.
	canReach := make([]bool, len(s.configs))
	for _, i := range queue {
		canReach[i] = true
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range s.preds[j] {
			if !canReach[i] {
				canReach[i] = true
				queue = append(queue, i)
			}
		}
	}
	rep.AllReachTarget = true
	for i := range s.configs {
		if !canReach[i] {
			rep.AllReachTarget = false
			rep.Counterexample = s.configs[i].String()
			break
		}
	}
	return rep
}

// DetectorSound checks that every configuration of s accepted by the
// detector is genuinely output-stable and that at least one accepted
// configuration exists. It returns the number of accepted
// configurations.
func (s *Space) DetectorSound(det core.Detector) (int, error) {
	accepted := 0
	for i, cfg := range s.configs {
		if !det.Stable(cfg) {
			continue
		}
		accepted++
		if s.unstable[i] {
			return accepted, fmt.Errorf("check: detector accepts output-unstable configuration %s", cfg)
		}
	}
	if accepted == 0 {
		return 0, errors.New("check: detector accepts no reachable configuration")
	}
	return accepted, nil
}

// dedupe returns the distinct ids of xs in first-seen order, in a new
// slice of exactly that length; xs is overwritten. Successor
// lists hold at most a few dozen ids, so the quadratic scan beats a
// set.
func dedupe(xs []int32) []int32 {
	uniq := xs[:0]
	for _, x := range xs {
		if !slices.Contains(uniq, x) {
			uniq = append(uniq, x)
		}
	}
	return slices.Clone(uniq)
}

// invert returns the predecessor lists of succs, packed into one
// backing array.
func invert(succs [][]int32) [][]int32 {
	deg := make([]int, len(succs))
	total := 0
	for _, ss := range succs {
		for _, j := range ss {
			deg[j]++
		}
		total += len(ss)
	}
	back := make([]int32, total)
	preds := make([][]int32, len(succs))
	off := 0
	for j, d := range deg {
		preds[j] = back[off : off : off+d]
		off += d
	}
	for i, ss := range succs {
		for _, j := range ss {
			preds[j] = append(preds[j], int32(i))
		}
	}
	return preds
}

// outputFingerprint encodes the output graph: Qout membership per node
// plus the active edges whose both endpoints are output nodes.
func outputFingerprint(cfg *core.Config) string {
	p := cfg.Protocol()
	n := cfg.N()
	buf := make([]byte, 0, n/8+n*(n-1)/16+2)
	var cur byte
	nbits := 0
	push := func(b bool) {
		cur <<= 1
		if b {
			cur |= 1
		}
		nbits++
		if nbits == 8 {
			buf = append(buf, cur)
			cur, nbits = 0, 0
		}
	}
	for u := 0; u < n; u++ {
		push(p.IsOutput(cfg.Node(u)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			push(cfg.Edge(u, v) && p.IsOutput(cfg.Node(u)) && p.IsOutput(cfg.Node(v)))
		}
	}
	if nbits > 0 {
		buf = append(buf, cur)
	}
	return string(buf)
}
