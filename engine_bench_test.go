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
//   - every row reports peak-heap-bytes (runtime.MemStats.HeapAlloc
//     after the run, before collection) so the perf artifact tracks
//     memory alongside wall-clock; run with -benchmem for the
//     allocator's own view;
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

func runLineBudget(b *testing.B, n int, engine core.Engine, seed uint64, maxSteps int64) core.Result {
	b.Helper()
	c := protocols.SimpleGlobalLine()
	res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Engine: engine, Detector: c.Detector, MaxSteps: maxSteps})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runLine runs to convergence under the default budget and asserts it.
func runLine(b *testing.B, n int, engine core.Engine, seed uint64) core.Result {
	b.Helper()
	res := runLineBudget(b, n, engine, seed, 0)
	if !res.Converged {
		b.Fatalf("n=%d engine=%s seed=%d did not converge", n, engine, seed)
	}
	return res
}

// heapAllocNow returns the live heap size without forcing a collection
// — read right after a run it approximates the run's peak footprint
// (the engines allocate their structures up front and produce little
// garbage).
func heapAllocNow() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
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
				var peakHeap float64
				for i := 0; i < b.N; i++ {
					// Collect other rows' (and iterations') garbage
					// outside the timer so peak-heap-bytes reflects this
					// run's footprint, not GC timing.
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
					var res core.Result
					if tc.maxSteps == 0 {
						res = runLine(b, tc.n, engine, uint64(i)+1)
					} else {
						res = runLineBudget(b, tc.n, engine, uint64(i)+1, tc.maxSteps)
					}
					steps += res.Steps
					effective += res.EffectiveSteps
					if h := heapAllocNow(); h > peakHeap {
						peakHeap = h
					}
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(effective)/float64(b.N), "effective/op")
				b.ReportMetric(peakHeap, "peak-heap-bytes")
			})
		}
	}

	b.Run("Simple-Global-Line/n=256/speedup", func(b *testing.B) {
		var baseline, sparse time.Duration
		for i := 0; i < b.N; i++ {
			seed := uint64(i) + 1
			start := time.Now()
			runLine(b, 256, core.EngineBaseline, seed)
			baseline += time.Since(start)
			start = time.Now()
			runLine(b, 256, core.EngineSparse, seed)
			sparse += time.Since(start)
		}
		if sparse > 0 {
			b.ReportMetric(float64(baseline)/float64(sparse), "speedup")
		}
	})
}
