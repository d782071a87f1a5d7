package netcons_test

// The benchmark harness regenerates the paper's evaluation:
//
//   - BenchmarkTable1/*       — the seven Section 3.3 processes, one
//     sub-benchmark per (process, n) cell, reporting steps/op and the
//     analytic expectation as ratio-to-theory;
//   - BenchmarkTable2/*       — the Sections 4–5 protocols, reporting
//     the paper's convergence time (last output change);
//   - BenchmarkLowerBounds/*  — the Theorem 1 matching protocol;
//   - BenchmarkFasterVsFast   — the Section 7 experimental comparison;
//   - BenchmarkUniversal/*    — the Section 6 generic constructors;
//   - BenchmarkEngine/*       — raw simulator throughput
//     (interactions/sec);
//   - BenchmarkSparseVsBaseline — sparse-engine vs baseline-loop wall
//     clock on Simple-Global-Line (engine_bench_test.go).
//
// Convergence times are reported via b.ReportMetric as "steps/op"
// (model interactions, the unit the paper analyzes); wall-clock ns/op
// is incidental.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/processes"
	"repro/internal/protocols"
	"repro/internal/tm"
	"repro/internal/universal"
)

func reportRun(b *testing.B, run func(seed uint64) float64, expected float64) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		total += run(uint64(i) + 1)
	}
	mean := total / float64(b.N)
	b.ReportMetric(mean, "steps/op")
	if expected > 0 {
		b.ReportMetric(mean/expected, "ratio-to-theory")
	}
}

func BenchmarkTable1(b *testing.B) {
	sizes := []int{32, 64, 128}
	for _, proc := range processes.All() {
		proc := proc
		needsOneA := proc.Proto.Name() == "One-Way-Epidemic" || proc.Proto.Name() == "Meet-Everybody"
		for _, n := range sizes {
			n := n
			b.Run(fmt.Sprintf("%s/n=%d", proc.Proto.Name(), n), func(b *testing.B) {
				reportRun(b, func(seed uint64) float64 {
					opts := core.Options{Seed: seed, Detector: proc.Detector}
					if needsOneA {
						initial, err := processes.InitialWithOneA(proc.Proto, n)
						if err != nil {
							b.Fatal(err)
						}
						opts.Initial = initial
					}
					res, err := core.Run(proc.Proto, n, opts)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatalf("n=%d did not converge", n)
					}
					return float64(res.Steps)
				}, proc.Expected(n))
			})
		}
	}
}

func benchProtocol(b *testing.B, c protocols.Constructor, sizes []int) {
	b.Helper()
	for _, n := range sizes {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reportRun(b, func(seed uint64) float64 {
				res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatalf("n=%d did not converge", n)
				}
				return float64(res.ConvergenceTime)
			}, 0)
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	b.Run("SimpleGlobalLine", func(b *testing.B) {
		benchProtocol(b, protocols.SimpleGlobalLine(), []int{8, 16, 24})
	})
	b.Run("FastGlobalLine", func(b *testing.B) {
		benchProtocol(b, protocols.FastGlobalLine(), []int{16, 32, 48})
	})
	b.Run("CycleCover", func(b *testing.B) {
		benchProtocol(b, protocols.CycleCover(), []int{32, 64, 128})
	})
	b.Run("GlobalStar", func(b *testing.B) {
		benchProtocol(b, protocols.GlobalStar(), []int{32, 64, 128})
	})
	b.Run("GlobalRing", func(b *testing.B) {
		benchProtocol(b, protocols.GlobalRing(), []int{6, 9, 12})
	})
	b.Run("TwoRC", func(b *testing.B) {
		benchProtocol(b, protocols.TwoRC(), []int{6, 9, 12})
	})
	b.Run("KRC", func(b *testing.B) {
		krc, err := protocols.KRC(3)
		if err != nil {
			b.Fatal(err)
		}
		benchProtocol(b, krc, []int{8, 10, 12})
	})
	b.Run("CCliques", func(b *testing.B) {
		cl, err := protocols.CCliques(3)
		if err != nil {
			b.Fatal(err)
		}
		benchProtocol(b, cl, []int{9, 12})
	})
	b.Run("GraphReplication", func(b *testing.B) {
		c := protocols.GraphReplication()
		for _, n := range []int{8, 12, 16} {
			n := n
			g1 := graph.Ring(n / 2)
			det := protocols.ReplicationDetector(g1)
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				reportRun(b, func(seed uint64) float64 {
					initial, err := protocols.ReplicationInitial(c.Proto, g1, n)
					if err != nil {
						b.Fatal(err)
					}
					res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: det, Initial: initial})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatalf("n=%d did not converge", n)
					}
					return float64(res.ConvergenceTime)
				}, 0)
			})
		}
	})
}

func BenchmarkLowerBounds(b *testing.B) {
	// Theorem 1: the 2-state spanning-net protocol matches the
	// Ω(n log n) generic lower bound (it is a node cover).
	b.Run("SpanningNet", func(b *testing.B) {
		c := protocols.SpanningNet()
		nodeCover := processes.NodeCover()
		for _, n := range []int{32, 64, 128, 256} {
			n := n
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				reportRun(b, func(seed uint64) float64 {
					res, err := core.Run(c.Proto, n, core.Options{Seed: seed, Detector: c.Detector})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatalf("n=%d did not converge", n)
					}
					return float64(res.Steps)
				}, nodeCover.Expected(n))
			})
		}
	})
}

func BenchmarkFasterVsFast(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    protocols.Constructor
	}{
		{"Fast", protocols.FastGlobalLine()},
		{"Faster", protocols.FasterGlobalLine()},
	} {
		tc := tc
		for _, n := range []int{16, 32, 48, 64} {
			n := n
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				reportRun(b, func(seed uint64) float64 {
					res, err := core.Run(tc.c.Proto, n, core.Options{Seed: seed, Detector: tc.c.Detector})
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatalf("n=%d did not converge", n)
					}
					return float64(res.ConvergenceTime)
				}, 0)
			})
		}
	}
}

func BenchmarkUniversal(b *testing.B) {
	b.Run("LinearWasteHalf/connected/n=16", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LinearWasteHalf(tm.Connected(), 16, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		}, 0)
	})
	b.Run("LinearWasteThird/even-edges/n=18", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LinearWasteThird(tm.EvenEdges(), 18, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		}, 0)
	})
	b.Run("LogWaste/has-edge/n=24", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.LogWaste(tm.HasEdge(), 24, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		}, 0)
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
		}, 0)
		if runs > 0 {
			b.ReportMetric(attempts/float64(runs), "attempts/op")
		}
	})
	b.Run("Supernodes/n=256", func(b *testing.B) {
		reportRun(b, func(seed uint64) float64 {
			res, err := universal.Supernodes(256, seed)
			if err != nil {
				b.Fatal(err)
			}
			return float64(res.Steps)
		}, 0)
	})
}

// BenchmarkEngine measures raw simulator throughput: interactions per
// second on a protocol that never stabilizes within the budget
// (edge cover on a large population), isolating engine overhead.
func BenchmarkEngine(b *testing.B) {
	proc := processes.EdgeCover()
	for _, n := range []int{64, 256} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(proc.Proto, n, core.Options{
					Seed:     uint64(i) + 1,
					Detector: proc.Detector,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "interactions/s")
		})
	}
}
