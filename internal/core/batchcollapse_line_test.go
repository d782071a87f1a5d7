package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
)

// TestBatchCollapseTwoLinesSmallN pins the swap-run collapse at the
// smallest populations the census index serves: pure batch from
// Simple-Global-Line's last merge at n = 66 — two 33-node lines whose
// leaders are about to meet — run to quiescence must collapse part of
// the walker's crossing and end on a spanning line. The walker's
// interior swaps are collapsible at every census-served n (up to 64
// nodes the bit-row index serves the run, which steps every landing),
// so a run that reports no collapsed landing here means the collapse
// tier has been walled off from small census populations.
func TestBatchCollapseTwoLinesSmallN(t *testing.T) {
	t.Parallel()
	sgl := protocols.SimpleGlobalLine()
	const n = 66
	for seed := uint64(1); seed <= 5; seed++ {
		initial := twoLines(t, sgl.Proto, n)
		res, err := core.Run(sgl.Proto, n, core.Options{
			Seed: seed, Engine: core.EngineBatch, Detector: core.QuiescenceDetector(), Initial: initial,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if !res.Converged || !protocols.ActiveGraph(res.Final).IsSpanningLine() {
			t.Fatalf("seed %d: converged=%v, final %s is not a spanning line", seed, res.Converged, res.Final)
		}
		if m.CollapsedLandings == 0 {
			t.Fatalf("seed %d: no collapsed landing (landings %d, bucket draws %d, exact %d)",
				seed, m.Landings, m.BucketDraws, m.ExactFallbackLandings)
		}
		if m.Landings+m.SkippedSteps+m.CollapsedLandings != res.Steps {
			t.Fatalf("seed %d: Landings %d + SkippedSteps %d + CollapsedLandings %d != Steps %d",
				seed, m.Landings, m.SkippedSteps, m.CollapsedLandings, res.Steps)
		}
	}
}

// twoLines builds Simple-Global-Line's configuration just before its
// last merge: nodes 0…n/2−1 and n/2…n−1 form two lines with q1 at
// the outer ends and the two leaders (l) facing each other across the
// one missing edge {n/2−1, n/2}.
func twoLines(t *testing.T, p *core.Protocol, n int) *core.Config {
	t.Helper()
	state := func(name string) core.State {
		s, ok := p.StateIndex(name)
		if !ok {
			t.Fatalf("%s has no state %s", p.Name(), name)
		}
		return s
	}
	q1, q2, l := state("q1"), state("q2"), state("l")
	cfg := core.NewConfig(p, n)
	half := n / 2
	for u := 0; u < n; u++ {
		switch u {
		case 0, n - 1:
			cfg.SetNode(u, q1)
		case half - 1, half:
			cfg.SetNode(u, l)
		default:
			cfg.SetNode(u, q2)
		}
		if u+1 < n && u != half-1 {
			cfg.SetEdge(u, u+1, true)
		}
	}
	return cfg
}
