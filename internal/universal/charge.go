package universal

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// chargeModel accounts the global interactions a phase consumes when
// only one specific pair (out of the n(n−1)/2 the uniform random
// scheduler draws from) makes progress: each elementary operation
// costs a geometrically distributed number of steps with success
// probability 2/(n(n−1)). This is exactly the waiting time the paper's
// analyses charge for "the scheduler must pick this particular
// interaction".
type chargeModel struct {
	rng   *core.RNG
	pairs float64 // n(n−1)/2
	steps int64
}

func newChargeModel(n int, rng *core.RNG) *chargeModel {
	return &chargeModel{rng: rng, pairs: float64(n) * float64(n-1) / 2}
}

// Steps returns the global interactions charged so far.
func (c *chargeModel) Steps() int64 { return c.steps }

// waits charges k sequential specific-pair waits. Each wait is the
// landing step plus Geometric(1/pairs) misses before it, and the waits
// are independent, so their total is k plus a NegBinomial(k, 1/pairs)
// miss count — one draw for any k.
func (c *chargeModel) waits(k int64) {
	if k > 0 {
		c.steps += k + c.rng.NegBinomial(k, 1/c.pairs)
	}
}

// waitAny charges a wait for any one of m equally useful pairs; m ≤ 0
// waits for one specific pair.
func (c *chargeModel) waitAny(m int) {
	c.steps += 1 + c.rng.Geometric(float64(max(m, 1))/c.pairs)
}

// coin flips the PREL fair coin (free: it happens within an already
// charged interaction).
func (c *chargeModel) coin() bool { return c.rng.Coin() }

// probeWaits is the specific-pair wait count of one counter-addressed
// pass over the C(k, 2) pairs of k addressable nodes (Fig. 6): for the
// pair (i, j) the counter walks i+1 hops to mark node i and j+1 hops to
// mark node j, the pair's own interaction follows, and both marks walk
// back — 2(i+1) + 2(j+1) + 1 waits. Summed over i < j that is
// k(k−1)² + 5k(k−1)/2.
func probeWaits(k int) int64 {
	k64 := int64(k)
	return k64*(k64-1)*(k64-1) + 5*k64*(k64-1)/2
}

// drawRandomGraph performs the Fig. 6 experiment on k addressable
// nodes: one probe pass in which each pair's own interaction flips the
// PREL coin to set its edge. The result is a uniformly random graph in
// G(k, 1/2).
func drawRandomGraph(charge *chargeModel, k int) *graph.Graph {
	charge.waits(probeWaits(k))
	return graph.GnHalf(k, charge.coin)
}
