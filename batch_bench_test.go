package netcons_test

// BenchmarkBatchVsSparse measures the batch engine against the sparse
// state-class engine on Simple-Global-Line — same workload rows, both
// engines, so the tracked artifact exposes the ratio directly:
//
//   - n=4096 rows share the 10⁹-step budget of the sparse row in
//     BenchmarkSparseVsBaseline; n=65536 and n=2²⁰ rows burn the full
//     default 2⁴⁰-step ceiling (Simple-Global-Line cannot converge at
//     these sizes within any practical budget — these are throughput
//     rows, steps/op confirming both engines simulate the same number
//     of scheduler draws per budget);
//   - the batch-speedup rows run sparse and batch back to back on the
//     same seeds and report the wall-clock ratio as "speedup" — the
//     n=65536 row is the ratio ARCHITECTURE.md's batch-engine table
//     quotes — plus both engines' allocated bytes;
//   - every row reports live-heap-bytes (see liveHeapBytes); run with
//     -benchmem for the allocator's view;
//   - the Simple-Global-Line-merge rows (batch only) start from the
//     configuration just before the last merge, two n/2-node lines
//     (protocols.TwoLinesInitial), and run to quiescence: one walker
//     crosses the merged line, the regime of the analytic swap-run
//     collapse. Each row reuses one workspace, built by an untimed
//     run, so ns/op prices the collapse rather than the allocator.
//     They report the collapse's work as counts — epochs/op
//     (FastForwardEpochs) and collapsed/op (CollapsedLandings).
//
// Run it with:
//
//	./scripts/bench.sh batch
//
// which runs five samples per row (-benchtime 1x -count 5) and writes
// the test2json stream to BENCH_batch.json; CI guards the median
// n=65536 speedup.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
)

func BenchmarkBatchVsSparse(b *testing.B) {
	for _, tc := range []struct {
		n        int
		maxSteps int64
	}{
		{4096, sparseBudget},
		{65536, core.DefaultMaxSteps(65536)},
		{1 << 20, core.DefaultMaxSteps(1 << 20)},
	} {
		tc := tc
		for _, engine := range []core.Engine{core.EngineSparse, core.EngineBatch} {
			engine := engine
			b.Run(fmt.Sprintf("Simple-Global-Line/n=%d/engine=%s", tc.n, engine), func(b *testing.B) {
				var steps, effective, bucketDraws int64
				var liveHeap float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					ws := core.NewWorkspace()
					b.StartTimer()
					res := runLineBudget(b, tc.n, engine, uint64(i)+1, tc.maxSteps, ws)
					b.StopTimer()
					liveHeap = max(liveHeap, liveHeapBytes(ws))
					b.StartTimer()
					steps += res.Steps
					effective += res.EffectiveSteps
					bucketDraws += res.Metrics.BucketDraws
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(effective)/float64(b.N), "effective/op")
				if engine == core.EngineBatch {
					if bucketDraws == 0 {
						b.Fatal("batch rows never took the pure path; the speedup rows measure nothing")
					}
					b.ReportMetric(float64(bucketDraws)/float64(b.N), "bucket-draws/op")
				}
				b.ReportMetric(liveHeap, "live-heap-bytes")
			})
		}

		b.Run(fmt.Sprintf("Simple-Global-Line/n=%d/batch-speedup", tc.n), func(b *testing.B) {
			var sparse, batch time.Duration
			var sparseAlloc, batchAlloc float64
			var m0, m1 runtime.MemStats
			for i := 0; i < b.N; i++ {
				seed := uint64(i) + 1
				runtime.GC()
				runtime.ReadMemStats(&m0)
				start := time.Now()
				runLineBudget(b, tc.n, core.EngineSparse, seed, tc.maxSteps, nil)
				sparse += time.Since(start)
				runtime.ReadMemStats(&m1)
				sparseAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)

				runtime.GC()
				runtime.ReadMemStats(&m0)
				start = time.Now()
				runLineBudget(b, tc.n, core.EngineBatch, seed, tc.maxSteps, nil)
				batch += time.Since(start)
				runtime.ReadMemStats(&m1)
				batchAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
			}
			if batch > 0 {
				b.ReportMetric(float64(sparse)/float64(batch), "speedup")
			}
			n := float64(b.N)
			b.ReportMetric(sparseAlloc/n, "sparse-alloc-bytes/op")
			b.ReportMetric(batchAlloc/n, "batch-alloc-bytes/op")
		})
	}
	sgl := protocols.SimpleGlobalLine()
	for _, n := range []int{8192, 16384} {
		initial, err := protocols.TwoLinesInitial(sgl.Proto, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Simple-Global-Line-merge/n=%d/engine=batch", n), func(b *testing.B) {
			ws := core.NewWorkspace()
			run := func(seed uint64) core.Result {
				res, err := core.Run(sgl.Proto, n, core.Options{
					Seed: seed, Engine: core.EngineBatch, Detector: core.QuiescenceDetector(),
					MaxSteps: 1 << 62, Initial: initial, Workspace: ws,
				})
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			// An untimed run of the first seed builds the workspace, so
			// the timed runs reuse it as a campaign worker's trials do;
			// reuse is bit-identical to a new workspace.
			run(1)
			b.ResetTimer()
			var epochs, collapsed int64
			for i := 0; i < b.N; i++ {
				res := run(uint64(i) + 1)
				if !res.Converged {
					b.Fatalf("seed %d: merge not quiescent after %d steps", i+1, res.Steps)
				}
				epochs += res.Metrics.FastForwardEpochs
				collapsed += res.Metrics.CollapsedLandings
			}
			b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
			b.ReportMetric(float64(collapsed)/float64(b.N), "collapsed/op")
		})
	}
}
