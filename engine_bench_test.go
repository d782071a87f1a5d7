package netcons_test

// BenchmarkSparseVsBaseline measures the sparse engine (state-class
// census + geometric step-skipping) against the baseline step-by-step
// loop on Simple-Global-Line — the paper's Ω(n⁴) worst case, whose
// long random-walk tail is almost entirely ineffective steps and
// therefore the indexed path's best and most representative customer:
//
//   - engine=baseline vs engine=sparse rows run to convergence at
//     n ∈ {64, 128, 256}; compare ns/op between the rows (steps/op
//     confirms the two simulate the same law);
//   - engine=sparse rows run at n ∈ {4096, 16384, 65536}. Beyond
//     n ≈ 2048 Simple-Global-Line cannot converge within the 2⁴⁰
//     default step ceiling on any engine, so these rows are fixed-
//     budget throughput rows (the n=4096 row shares BenchmarkBatchVsSparse's
//     10⁹-step budget; the larger rows burn the full default ceiling);
//   - every row reports live-heap-bytes (see liveHeapBytes) so the
//     perf artifact tracks memory alongside wall-clock; run with
//     -benchmem for the allocator's own view;
//   - the n=256 speedup row runs baseline and sparse back to back and
//     reports the wall-clock ratio as "speedup".
//
// Run it with:
//
//	./scripts/bench.sh engine
//
// which runs five samples per row and writes the test2json stream to
// BENCH_engine.json.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
)

// sparseBudget is the shared step cap of the n=4096 fixed-budget rows:
// enough to carry the run well past the dense pairing phase into the
// skip-dominated tail, while keeping each row to seconds.
const sparseBudget = int64(1_000_000_000)

// runLineBudget runs Simple-Global-Line for at most maxSteps steps, on
// ws when it is non-nil.
func runLineBudget(b *testing.B, n int, engine core.Engine, seed uint64, maxSteps int64, ws *core.Workspace) core.Result {
	b.Helper()
	c := protocols.SimpleGlobalLine()
	res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Engine: engine, Detector: c.Detector, MaxSteps: maxSteps, Workspace: ws})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runLine runs to convergence under the default budget and asserts it.
func runLine(b *testing.B, n int, engine core.Engine, seed uint64, ws *core.Workspace) core.Result {
	b.Helper()
	res := runLineBudget(b, n, engine, seed, 0, ws)
	if !res.Converged {
		b.Fatalf("n=%d engine=%s seed=%d did not converge", n, engine, seed)
	}
	return res
}

// liveHeapBytes collects garbage and returns the heap still in use
// while ws, the workspace a run just finished on, stays reachable: the
// run's resident configuration plus census index. A HeapAlloc read
// without the collection would also count whatever garbage the
// collector had not yet reclaimed, and would vary from sample to
// sample on the same code.
func liveHeapBytes(ws *core.Workspace) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(ws)
	return float64(m.HeapAlloc)
}

func BenchmarkSparseVsBaseline(b *testing.B) {
	for _, tc := range []struct {
		n        int
		maxSteps int64 // 0: run to convergence (asserted); else fixed budget
		engines  []core.Engine
	}{
		{64, 0, []core.Engine{core.EngineBaseline, core.EngineSparse}},
		{128, 0, []core.Engine{core.EngineBaseline, core.EngineSparse}},
		{256, 0, []core.Engine{core.EngineBaseline, core.EngineSparse}},
		{4096, sparseBudget, []core.Engine{core.EngineSparse}},
		{16384, core.DefaultMaxSteps(16384), []core.Engine{core.EngineSparse}},
		{65536, core.DefaultMaxSteps(65536), []core.Engine{core.EngineSparse}},
	} {
		tc := tc
		for _, engine := range tc.engines {
			engine := engine
			b.Run(fmt.Sprintf("Simple-Global-Line/n=%d/engine=%s", tc.n, engine), func(b *testing.B) {
				var steps, effective int64
				var liveHeap float64
				for i := 0; i < b.N; i++ {
					// Collect other rows' (and iterations') garbage and
					// measure the trial's live heap outside the timer.
					b.StopTimer()
					runtime.GC()
					ws := core.NewWorkspace()
					b.StartTimer()
					var res core.Result
					if tc.maxSteps == 0 {
						res = runLine(b, tc.n, engine, uint64(i)+1, ws)
					} else {
						res = runLineBudget(b, tc.n, engine, uint64(i)+1, tc.maxSteps, ws)
					}
					b.StopTimer()
					liveHeap = max(liveHeap, liveHeapBytes(ws))
					b.StartTimer()
					steps += res.Steps
					effective += res.EffectiveSteps
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(effective)/float64(b.N), "effective/op")
				b.ReportMetric(liveHeap, "live-heap-bytes")
			})
		}
	}

	b.Run("Simple-Global-Line/n=256/speedup", func(b *testing.B) {
		var baseline, sparse time.Duration
		for i := 0; i < b.N; i++ {
			seed := uint64(i) + 1
			start := time.Now()
			runLine(b, 256, core.EngineBaseline, seed, nil)
			baseline += time.Since(start)
			start = time.Now()
			runLine(b, 256, core.EngineSparse, seed, nil)
			sparse += time.Since(start)
		}
		if sparse > 0 {
			b.ReportMetric(float64(baseline)/float64(sparse), "speedup")
		}
	})
}
