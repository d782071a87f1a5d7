package netcons_test

// The benchmark harness (the paper's tables themselves come from
// cmd/tables). Every root benchmark feeds one scripts/bench.sh suite
// and its committed BENCH_*.json file, for example:
//
//   - BenchmarkUniversal/*    — the Section 6 generic constructors,
//     Remark 2's deterministic constructor and Theorem 18's
//     supernodes (the universal suite, BENCH_universal.json);
//   - BenchmarkSparseVsBaseline — sparse-engine vs baseline-loop wall
//     clock on Simple-Global-Line (engine_bench_test.go, the engine
//     suite, BENCH_engine.json).
//
// Convergence times are reported via b.ReportMetric as "steps/op"
// (model interactions, the unit the paper analyzes); wall-clock ns/op
// is incidental.

import (
	"testing"

	"repro/internal/tm"
	"repro/internal/universal"
)

func reportRun(b *testing.B, run func(seed uint64) float64) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		total += run(uint64(i) + 1)
	}
	b.ReportMetric(total/float64(b.N), "steps/op")
}

func BenchmarkUniversal(b *testing.B) {
	b.Run("LinearWasteHalf/connected/n=16", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LinearWasteHalf(tm.Connected(), 16, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		})
	})
	b.Run("LinearWasteThird/even-edges/n=18", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LinearWasteThird(tm.EvenEdges(), 18, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		})
	})
	b.Run("LogWaste/has-edge/n=24", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LogWaste(tm.HasEdge(), 24, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		})
	})
	b.Run("ConnectivityTime/n=20", func(b *testing.B) {
		// Remark 1: connectivity holds a.a.s. in G(k, 1/2), so the
		// retry loop runs O(1) times in expectation.
		var attempts float64
		var runs int
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LinearWasteHalf(tm.Connected(), 20, seed)
			if err != nil {
				b.Fatal(err)
			}
			attempts += float64(res.Attempts)
			runs++
			return float64(res.Steps)
		})
		if runs > 0 {
			b.ReportMetric(attempts/float64(runs), "attempts/op")
		}
	})
	b.Run("DeterministicConstruct/ring/n=16", func(b *testing.B) {
		// Remark 2: the same half-waste pipeline as LinearWasteHalf
		// with the random draw and the retry loop replaced by one
		// write pass of the target.
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.DeterministicConstruct(universal.RingBuilder(), 16, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		})
	})
	b.Run("Supernodes/n=256", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.Supernodes(256, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		})
	})
}
