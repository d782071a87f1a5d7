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
// nothing to amortize, so runBatch routes the whole run through the
// exact per-landing path — bit-identical to EngineSparse, with the
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
				opts := core.Options{
					Seed: 3, Engine: engine, Detector: c.Detector, MaxSteps: 1 << 20,
				}
				if name == "degree-doubling" {
					// Its default start is already stable; the measured run
					// needs the registered non-uniform initial.
					initial, err := protocols.DegreeDoublingInitial(c.Proto, 12)
					if err != nil {
						t.Fatal(err)
					}
					opts.Initial = initial
					res, err := core.Run(c.Proto, 12, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				res, err := core.Run(c.Proto, 10, opts)
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

// TestBatchDistributionalEquivalence pins the second half of the
// contract on the engine's motivating workload, Simple-Global-Line
// (its walker swap is the one batched, kernel-applied transition):
//
//   - the convergence-time distributions of EngineSparse and
//     EngineBatch over a fixed seed range must pass a two-sample
//     Kolmogorov–Smirnov test at α = 0.001, and
//   - the active-edge count at a fixed mid-transient horizon — a
//     final-graph statistic with real spread — must pass a two-sample
//     chi-square test at α = 0.001.
//
// Seeds are fixed, so failures are law changes, not noise. The batch
// runs must actually exercise the pure path (BucketDraws > 0) — a
// silent reroute to the exact path would pass any equivalence test
// while benchmarking nothing.
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
		const n = 10
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
				t.Fatal("batch runs never exercised the bucket-plan path")
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
			n       = 24
			horizon = 5000
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
				edges := 0
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if res.Final.Edge(u, v) {
							edges++
						}
					}
				}
				h[edges]++
			}
			return h
		}
		a := hist(core.EngineSparse)
		b := hist(core.EngineBatch)
		stat, df := stats.ChiSquareTwoSample(a, b)
		if df == 0 {
			t.Fatalf("degenerate horizon: histograms %v vs %v", a, b)
		}
		if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
			t.Fatalf("active-edge chi-square %.2f > critical %.2f (df %d)\nsparse %v\nbatch  %v", stat, crit, df, a, b)
		}
	})
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
