package netcons_test

// The batch engine makes a two-sided promise (see ARCHITECTURE.md):
// runs it steps exactly — non-batchable protocols, and any run with an
// event sink, a fault injector or a restricted topology — are
// bit-identical to EngineSparse; runs it batches are equal in law, verified here by a
// Kolmogorov–Smirnov test on convergence times and a two-sample
// chi-square test on a fixed-horizon graph statistic. CI greps for
// these tests by name; keep them in sync with
// .github/workflows/ci.yml.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// batchResultKey flattens a Result to the comparable fields of the
// bit-identity contract — everything except the reporting Engine tag.
type batchResultKey struct {
	Converged       bool
	Stopped         bool
	Steps           int64
	ConvergenceTime int64
	EffectiveSteps  int64
	EdgeChanges     int64
	Fingerprint     string
}

func batchKeyOf(res core.Result) batchResultKey {
	return batchResultKey{
		Converged:       res.Converged,
		Stopped:         res.Stopped,
		Steps:           res.Steps,
		ConvergenceTime: res.ConvergenceTime,
		EffectiveSteps:  res.EffectiveSteps,
		EdgeChanges:     res.EdgeChanges,
		Fingerprint:     res.Final.Fingerprint(),
	}
}

// TestBatchExactStepping pins the first half of the batch contract: a
// protocol with no census-preserving transition gives the batch engine
// nothing to amortize, so core.Run turns swap runs off and steps
// every landing exactly — bit-identical to EngineSparse, with the
// batch metrics reporting every landing as exact-stepped.
func TestBatchExactStepping(t *testing.T) {
	t.Parallel()
	nonBatchable := 0
	for _, name := range protocols.Names() {
		c, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Proto.Batchable() {
			continue
		}
		nonBatchable++
		name, c := name, c
		t.Run("engine=batch/exact/"+name, func(t *testing.T) {
			t.Parallel()
			run := func(engine core.Engine) core.Result {
				const n = 10
				opts := core.Options{
					Seed: 3, Engine: engine, Detector: c.Detector, MaxSteps: 1 << 20,
				}
				if c.Initial != nil {
					initial, err := c.Initial(n)
					if err != nil {
						t.Fatal(err)
					}
					opts.Initial = initial
				}
				res, err := core.Run(c.Proto, n, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sparse := run(core.EngineSparse)
			batch := run(core.EngineBatch)
			if batch.Engine != core.EngineBatch {
				t.Fatalf("batch run reported engine %s", batch.Engine)
			}
			if batchKeyOf(sparse) != batchKeyOf(batch) {
				t.Fatalf("non-batchable %s diverged from sparse:\nsparse %+v\nbatch  %+v",
					name, batchKeyOf(sparse), batchKeyOf(batch))
			}
			m := batch.Metrics
			if m.BucketDraws != 0 {
				t.Fatalf("exact route drew %d bucket landings", m.BucketDraws)
			}
			if m.ExactFallbackLandings != m.Landings || m.Landings == 0 {
				t.Fatalf("exact route accounting: %d fallback of %d landings", m.ExactFallbackLandings, m.Landings)
			}
		})
	}
	if nonBatchable == 0 {
		t.Fatal("registry has no non-batchable protocol; the exact route is untested")
	}
}

// TestBatchBitRowsBitIdentical pins the batch engine below the 64-node
// cut: there the bit-row index serves the run, the swap-run tiers (which
// read the census) stay off, and batch steps every landing exactly —
// bit-identical to EngineSparse with no sink attached, for every
// registry entry, and for Simple-Global-Line's last merge at n = 64,
// the collapse regime above the cut.
func TestBatchBitRowsBitIdentical(t *testing.T) {
	t.Parallel()
	type subject struct {
		name    string
		c       protocols.Constructor
		n       int
		initial func() (*core.Config, error)
	}
	var subjects []subject
	for _, name := range protocols.Names() {
		c, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sub := subject{name: name, c: c, n: 12}
		if c.Initial != nil {
			build := c.Initial
			sub.initial = func() (*core.Config, error) { return build(12) }
		}
		subjects = append(subjects, sub)
	}
	sgl := protocols.SimpleGlobalLine()
	subjects = append(subjects, subject{name: "simple-global-line/two-lines", c: sgl, n: 64,
		initial: func() (*core.Config, error) { return twoLinesInitial(sgl.Proto, 64) }})
	for _, sub := range subjects {
		sub := sub
		t.Run(fmt.Sprintf("%s/n=%d", sub.name, sub.n), func(t *testing.T) {
			t.Parallel()
			run := func(engine core.Engine) core.Result {
				opts := core.Options{Seed: 5, Engine: engine, Detector: sub.c.Detector, MaxSteps: 1 << 20}
				if sub.initial != nil {
					initial, err := sub.initial()
					if err != nil {
						t.Fatal(err)
					}
					opts.Initial = initial
				}
				res, err := core.Run(sub.c.Proto, sub.n, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sparse, batch := run(core.EngineSparse), run(core.EngineBatch)
			if batchKeyOf(sparse) != batchKeyOf(batch) {
				t.Fatalf("batch diverged from sparse:\nsparse %+v\nbatch  %+v", batchKeyOf(sparse), batchKeyOf(batch))
			}
			m := batch.Metrics
			if m.BucketDraws != 0 || m.CollapsedLandings != 0 || m.ExactFallbackLandings != m.Landings {
				t.Fatalf("batch left the exact route: %d of %d landings exact, %d bucket draws, %d collapsed",
					m.ExactFallbackLandings, m.Landings, m.BucketDraws, m.CollapsedLandings)
			}
		})
	}
}

// TestBatchDistributionalEquivalence pins the second half of the
// contract on the engine's motivating workload, Simple-Global-Line
// (its walker swap is the one batched, kernel-applied transition):
//
//   - the convergence-time distributions of EngineSparse and
//     EngineBatch over a fixed seed range must pass a two-sample
//     Kolmogorov–Smirnov test at α = 0.001, and
//   - the active-edge count at a fixed mid-transient horizon — a
//     final-graph statistic with real spread — must pass a two-sample
//     chi-square test at α = 0.001, once under an ungated never-stable
//     detector (no swap run is ever revealed: every landing takes the
//     per-landing path) and once under Simple-Global-Line's own
//     edge-triggered detector, which lets the engine reveal swap runs
//     (runs that end at the horizon are fine: MaxSteps is the horizon).
//
// Seeds are fixed, so failures are law changes, not noise. The batch
// runs must actually exercise the pure path (BucketDraws > 0) — a
// silent reroute to the exact path would pass any equivalence test
// while benchmarking nothing. The populations sit above the 64-node
// cut, since below it the bit-row index serves the run and batch steps
// every landing exactly (TestBatchBitRowsBitIdentical).
func TestBatchDistributionalEquivalence(t *testing.T) {
	t.Parallel()
	c, err := protocols.Lookup("simple-global-line")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Proto.Batchable() {
		t.Fatal("simple-global-line must be batchable (its walker rule is a deterministic swap)")
	}

	t.Run("engine=batch/ks-convergence-time", func(t *testing.T) {
		t.Parallel()
		trials := 200
		if testing.Short() {
			trials = 60
		}
		const n = 66
		sample := func(engine core.Engine) []float64 {
			out := make([]float64, trials)
			var bucketDraws int64
			for trial := 0; trial < trials; trial++ {
				res, err := core.Run(c.Proto, n, core.Options{
					Seed: uint64(trial) + 1, Engine: engine, Detector: c.Detector,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("engine=%s seed=%d did not converge", engine, trial+1)
				}
				out[trial] = float64(res.ConvergenceTime)
				bucketDraws += res.Metrics.BucketDraws
			}
			if engine == core.EngineBatch && bucketDraws == 0 {
				t.Fatal("batch runs never drew inside a census-frozen stretch")
			}
			return out
		}
		a := sample(core.EngineSparse)
		b := sample(core.EngineBatch)
		d := stats.KSStatistic(a, b)
		if thr := stats.KSThreshold(len(a), len(b), 0.001); d > thr {
			t.Fatalf("convergence-time KS statistic %.4f > threshold %.4f (n=%d per sample)", d, thr, len(a))
		}
	})

	t.Run("engine=batch/chi-square-active-edges", func(t *testing.T) {
		t.Parallel()
		trials := 300
		if testing.Short() {
			trials = 100
		}
		const (
			n       = 72
			horizon = 45000
		)
		never := core.Detector{Trigger: core.TriggerInterval, Stable: func(*core.Config) bool { return false }}
		hist := func(engine core.Engine) []int64 {
			// Active-edge count at the horizon ranges over 0..n−1 on the
			// way to the spanning line.
			h := make([]int64, n)
			for trial := 0; trial < trials; trial++ {
				res, err := core.Run(c.Proto, n, core.Options{
					Seed: uint64(trial) + 1, Engine: engine, Detector: never, MaxSteps: horizon,
				})
				if err != nil {
					t.Fatal(err)
				}
				h[activeEdges(res.Final)]++
			}
			return h
		}
		chiSquareEngines(t, hist(core.EngineSparse), hist(core.EngineBatch))
	})

	t.Run("engine=batch/chi-square-active-edges-gated", func(t *testing.T) {
		t.Parallel()
		trials := 300
		if testing.Short() {
			trials = 100
		}
		const (
			n       = 72
			horizon = 18000
		)
		hist := func(engine core.Engine) []int64 {
			h := make([]int64, n)
			var bucketDraws int64
			for trial := 0; trial < trials; trial++ {
				res, err := core.Run(c.Proto, n, core.Options{
					Seed: uint64(trial) + 1, Engine: engine, Detector: c.Detector, MaxSteps: horizon,
				})
				if err != nil {
					t.Fatal(err)
				}
				h[activeEdges(res.Final)]++
				bucketDraws += res.Metrics.BucketDraws
			}
			if engine == core.EngineBatch && bucketDraws == 0 {
				t.Fatal("batch runs never drew inside a census-frozen stretch")
			}
			return h
		}
		chiSquareEngines(t, hist(core.EngineSparse), hist(core.EngineBatch))
	})
}

// activeEdges counts the active edges of a configuration.
func activeEdges(cfg *core.Config) int {
	edges := 0
	for u := 0; u < cfg.N(); u++ {
		for v := u + 1; v < cfg.N(); v++ {
			if cfg.Edge(u, v) {
				edges++
			}
		}
	}
	return edges
}

// chiSquareEngines fails unless two active-edge histograms, sparse and
// batch, pass a two-sample chi-square test at α = 0.001.
func chiSquareEngines(t *testing.T, a, b []int64) {
	t.Helper()
	stat, df := stats.ChiSquareTwoSample(a, b)
	if df == 0 {
		t.Fatalf("degenerate horizon: histograms %v vs %v", a, b)
	}
	if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
		t.Fatalf("active-edge chi-square %.2f > critical %.2f (df %d)\nsparse %v\nbatch  %v", stat, crit, df, a, b)
	}
}

// recordSink serializes every event except the run-envelope Engine tag
// (the one field the contract lets differ).
type recordSink struct {
	events []string
}

func (s *recordSink) Event(ev *core.Event) {
	s.events = append(s.events, fmt.Sprintf(
		"%s step=%d uv=%d,%d before=%d,%d after=%d,%d ec=%v e=%v skip=%d label=%q stable=%v conv=%v eff=%d",
		ev.Kind, ev.Step, ev.U, ev.V, ev.BeforeU, ev.BeforeV, ev.AfterU, ev.AfterV,
		ev.EdgeChanged, ev.Edge, ev.Skipped, ev.Label, ev.Stable, ev.Converged, ev.EffectiveSteps))
}

// TestBatchExactFallbackBitIdentical pins the fallback half of the
// contract on a batchable protocol: attaching an event sink, a fault
// injector, or a restricted topology reroutes the whole batch run to
// exact stepping, so the run — results, final configuration, and the
// full event stream — is bit-identical to EngineSparse with the same
// options. (TestEventSinkDoesNotPerturbRuns in internal/core
// points here for the engine=batch case it cannot assert.)
func TestBatchExactFallbackBitIdentical(t *testing.T) {
	t.Parallel()
	c, err := protocols.Lookup("simple-global-line")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Proto.Batchable() {
		t.Fatal("fallback test needs a batchable protocol")
	}
	const n = 10

	plan := &scenario.FaultPlan{Seed: 5, Events: []scenario.Fault{
		{Kind: scenario.KindEdge, Step: 60, Count: 2},
		{Kind: scenario.KindReset, Step: 150},
	}}

	type variant struct {
		name   string
		attach func(opts *core.Options) (stream func() []string)
	}
	variants := []variant{
		{"events", func(opts *core.Options) func() []string {
			sink := &recordSink{}
			opts.Events = sink
			return func() []string { return sink.events }
		}},
		{"topology", func(opts *core.Options) func() []string {
			spec, err := core.ParseTopologySpec("gnp@0.5")
			if err != nil {
				t.Fatal(err)
			}
			topo, err := spec.Realize(n, opts.Seed)
			if err != nil {
				t.Fatal(err)
			}
			opts.Topology = topo
			return func() []string { return nil }
		}},
		{"injector", func(opts *core.Options) func() []string {
			pr, err := plan.Prepare(c.Proto)
			if err != nil {
				t.Fatal(err)
			}
			inj := pr.NewInjection(opts.Seed)
			opts.Injector = inj
			return func() []string {
				counts := inj.Counts()
				return []string{fmt.Sprintf("edges=%d resets=%d", counts.EdgeDeletions, counts.Resets)}
			}
		}},
	}

	for _, v := range variants {
		v := v
		t.Run("engine=batch/fallback="+v.name, func(t *testing.T) {
			t.Parallel()
			run := func(engine core.Engine) (core.Result, []string) {
				opts := core.Options{
					Seed: 17, Engine: engine, Detector: c.Detector, MaxSteps: 1 << 22,
				}
				if v.name == "injector" || v.name == "topology" {
					// Faults and a restricted interaction graph break the
					// target detector's reachability assumption;
					// quiescence is the honest stop rule.
					opts.Detector = core.QuiescenceDetector()
				}
				stream := v.attach(&opts)
				res, err := core.Run(c.Proto, n, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res, stream()
			}
			sparse, sparseStream := run(core.EngineSparse)
			batch, batchStream := run(core.EngineBatch)
			if batch.Engine != core.EngineBatch || sparse.Engine != core.EngineSparse {
				t.Fatalf("engine tags: sparse=%s batch=%s", sparse.Engine, batch.Engine)
			}
			if batchKeyOf(sparse) != batchKeyOf(batch) {
				t.Fatalf("fallback run diverged from sparse:\nsparse %+v\nbatch  %+v",
					batchKeyOf(sparse), batchKeyOf(batch))
			}
			if len(sparseStream) != len(batchStream) {
				t.Fatalf("stream lengths diverged: sparse %d, batch %d", len(sparseStream), len(batchStream))
			}
			for i := range sparseStream {
				if sparseStream[i] != batchStream[i] {
					t.Fatalf("stream entry %d diverged:\nsparse %s\nbatch  %s", i, sparseStream[i], batchStream[i])
				}
			}
			m := batch.Metrics
			if m.BucketDraws != 0 {
				t.Fatalf("fallback run drew %d bucket landings", m.BucketDraws)
			}
			if m.ExactFallbackLandings != m.Landings || m.Landings == 0 {
				t.Fatalf("fallback accounting: %d fallback of %d landings", m.ExactFallbackLandings, m.Landings)
			}
		})
	}
}
