package core

// Scheduler selects the next interacting pair. The paper's model only
// requires fairness; running-time analysis assumes the uniform random
// scheduler. Alternative fair schedulers are provided for correctness
// testing (the theorems must hold under any fair schedule) and
// adversarial stress.
type Scheduler interface {
	// Next returns the next unordered pair to interact, given the
	// current configuration. Implementations must not retain cfg.
	Next(cfg *Config, rng *RNG) (u, v int)
	// Name identifies the scheduler in reports.
	Name() string
}

// SupportsTopology reports whether sched can restrict its draws to a
// Topology's permitted pairs, the condition Run puts on a restricted
// topology: the rate- and bias-weighted schedulers draw over the full
// pair space and have no restricted form.
func SupportsTopology(sched Scheduler) bool {
	switch sched.(type) {
	case UniformScheduler, *UniformScheduler, *RoundRobinScheduler, *PermutationScheduler:
		return true
	}
	return false
}

// UniformScheduler is the paper's uniform random scheduler: every one
// of the n(n−1)/2 pairs is selected independently and uniformly at
// random each step. It is fair with probability 1. Under a restricted
// topology the draw is uniform over the permitted pairs instead — the
// same law conditioned on the restricted interaction graph.
type UniformScheduler struct{}

// Next implements Scheduler.
func (UniformScheduler) Next(cfg *Config, rng *RNG) (int, int) {
	if t := cfg.topo; t != nil {
		return t.SamplePair(rng)
	}
	return rng.Pair(cfg.N())
}

// Name implements Scheduler.
func (UniformScheduler) Name() string { return "uniform" }

// RoundRobinScheduler cycles deterministically through all pairs in a
// fixed order. It is fair (every pair recurs every n(n−1)/2 steps) but
// maximally regular — a useful sanity adversary: stabilization theorems
// hold under it even though the running-time analysis does not apply.
type RoundRobinScheduler struct {
	next int
}

// Next implements Scheduler.
func (s *RoundRobinScheduler) Next(cfg *Config, _ *RNG) (int, int) {
	if t := cfg.topo; t != nil {
		u, v := t.PairAt(s.next)
		s.next++
		if s.next >= t.PairCount() {
			s.next = 0
		}
		return u, v
	}
	n := cfg.N()
	u, v := pairFromIndex(n, s.next)
	s.next++
	if s.next >= pairCount(n) {
		s.next = 0
	}
	return u, v
}

// Name implements Scheduler.
func (s *RoundRobinScheduler) Name() string { return "round-robin" }

// PermutationScheduler runs through a fresh random permutation of all
// pairs each epoch. Fair, and stresses different interleavings than the
// uniform scheduler (every pair occurs exactly once per epoch).
type PermutationScheduler struct {
	order []int
	pos   int
}

// Next implements Scheduler.
func (s *PermutationScheduler) Next(cfg *Config, rng *RNG) (int, int) {
	n := cfg.N()
	pc := pairCount(n)
	if t := cfg.topo; t != nil {
		pc = t.PairCount()
	}
	if s.pos >= len(s.order) || len(s.order) != pc {
		s.order = rng.Perm(pc)
		s.pos = 0
	}
	idx := s.order[s.pos]
	s.pos++
	if t := cfg.topo; t != nil {
		return t.PairAt(idx)
	}
	return pairFromIndex(n, idx)
}

// Name implements Scheduler.
func (s *PermutationScheduler) Name() string { return "permutation" }

// WeightedScheduler is a heterogeneous-rate random scheduler: every
// node carries a relative clock rate and each step draws both
// endpoints rate-proportionally (the second from the remaining
// nodes), modelling populations whose members interact at different
// speeds — the scheduler variation the NETCS-style simulators expose.
// Nodes in the id prefix [0, ⌈HotFraction·n⌉) run at Boost times the
// rate of the rest. Every pair keeps positive probability each step,
// so fairness holds with probability 1 and the paper's stabilization
// theorems still apply, but the uniform-scheduler running-time
// analysis does not — the indexed engines reject it, and EngineAuto
// falls back to the baseline loop.
type WeightedScheduler struct {
	// HotFraction is the fraction of the population running hot;
	// values ≤ 0 default to 0.25, values > 1 clamp to 1.
	HotFraction float64
	// Boost is the hot nodes' rate multiple; values ≤ 0 default to 4.
	Boost float64
}

// Next implements Scheduler.
func (s *WeightedScheduler) Next(cfg *Config, rng *RNG) (int, int) {
	n := cfg.N()
	frac := s.HotFraction
	if frac <= 0 {
		frac = 0.25
	}
	if frac > 1 {
		frac = 1
	}
	boost := s.Boost
	if boost <= 0 {
		boost = 4
	}
	hot := int(frac * float64(n))
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	u := weightedNode(n, hot, boost, rng)
	v := u
	for v == u {
		v = weightedNode(n, hot, boost, rng)
	}
	return u, v
}

// weightedNode draws one node with probability proportional to its
// rate (boost for the hot prefix, 1 for the rest).
func weightedNode(n, hot int, boost float64, rng *RNG) int {
	hotMass := boost * float64(hot)
	x := rng.Float64() * (hotMass + float64(n-hot))
	var u int
	if x < hotMass {
		u = int(x / boost)
	} else {
		u = hot + int(x-hotMass)
	}
	if u >= n {
		// Guard the floating-point edge where x rounds up to the total.
		u = n - 1
	}
	return u
}

// Name implements Scheduler.
func (s *WeightedScheduler) Name() string { return "weighted" }

// BiasedScheduler is an adversarially skewed (but still fair) random
// scheduler: with probability 1−Epsilon it picks a pair within the
// "slow" prefix of nodes [0, Cut), otherwise a uniform pair. Every pair
// keeps non-zero probability each step, so fairness holds with
// probability 1, yet interactions involving the suffix are starved —
// a stress test for protocols whose proofs rely only on fairness.
type BiasedScheduler struct {
	// Cut is the size of the favored prefix (≥ 2 effective).
	Cut int
	// Epsilon is the probability of an unbiased draw; must be in (0, 1].
	Epsilon float64
}

// Next implements Scheduler.
func (s *BiasedScheduler) Next(cfg *Config, rng *RNG) (int, int) {
	n := cfg.N()
	cut := s.Cut
	if cut < 2 {
		cut = 2
	}
	if cut > n {
		cut = n
	}
	if cut < n && rng.Float64() >= s.Epsilon {
		return rng.Pair(cut)
	}
	return rng.Pair(n)
}

// Name implements Scheduler.
func (s *BiasedScheduler) Name() string { return "biased" }
