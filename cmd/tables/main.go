// Command tables regenerates the paper's two evaluation tables with
// measured columns appended:
//
//   - Table 1 (Section 3.3): the expected convergence times of the
//     seven fundamental probabilistic processes, with measured means,
//     measured/analytic ratios and fitted scaling exponents;
//   - Table 2 (Sections 4–5): the nine protocols with their state
//     counts (verified programmatically) and measured convergence-time
//     sweeps, plus the Section 7 Faster-vs-Fast comparison.
//
// A fourth table reports the sparsity sweep: convergence of
// Simple-Global-Line and Cycle-Cover under restricted interaction
// topologies of increasing expected degree (-topology picks the
// random-graph model).
//
// Usage: tables [-trials 5] [-seed 1] [-quick] [-engine auto] [-topology gnp]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/processes"
	"repro/internal/protocols"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		trials = flag.Int("trials", 5, "trials per (process, n) cell")
		seed   = flag.Uint64("seed", 1, "base RNG seed")
		quick  = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		engine = flag.String("engine", "auto", "execution path: auto, baseline, sparse, or batch")
		topo   = flag.String("topology", "gnp", "topology model for the sparsity table: gnp or rgg")
	)
	flag.Parse()

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		return err
	}
	if err := table1(*trials, *seed, *quick, eng); err != nil {
		return err
	}
	fmt.Println()
	if err := table2(*trials, *seed, *quick, eng); err != nil {
		return err
	}
	fmt.Println()
	if err := fasterVsFast(*trials, *seed, *quick, eng); err != nil {
		return err
	}
	fmt.Println()
	return sparsityTable(*trials, *seed, *quick, eng, *topo)
}

func table1(trials int, seed uint64, quick bool, engine core.Engine) error {
	sizes := experiments.Table1Sizes()
	if quick {
		sizes = sizes[:4]
	}
	fmt.Println("Table 1 — fundamental probabilistic processes (expected time to convergence)")
	fmt.Printf("%-24s %-14s %-10s %-14s %-10s\n", "Process", "Paper", "fit α", "ratio spread", "mean@max-n")
	for _, proc := range processes.All() {
		series, err := experiments.MeasureProcess(proc, sizes, trials, seed, engine)
		if err != nil {
			return err
		}
		alpha, err := series.FitExponent()
		if err != nil {
			return err
		}
		spread, err := series.RatioSpread()
		if err != nil {
			return err
		}
		last := series.Points[len(series.Points)-1]
		fmt.Printf("%-24s %-14s %-10.2f %-14.2f %-10.0f\n",
			series.Name, proc.Theta, alpha, spread, last.Mean)
	}
	return nil
}

func table2(trials int, seed uint64, quick bool, engine core.Engine) error {
	fmt.Println("Table 2 — protocols (states, measured expected convergence time)")
	fmt.Printf("%-22s %-7s %-18s %-10s %s\n", "Protocol", "states", "Paper time", "fit α", "mean steps per n")
	rows := []struct {
		key       string
		paperTime string
	}{
		{"simple-global-line", "Ω(n⁴), O(n⁵)"},
		{"fast-global-line", "O(n³)"},
		{"cycle-cover", "Θ(n²) (opt)"},
		{"global-star", "Θ(n² log n) (opt)"},
		{"global-ring", "(Ω(n²) LB)"},
		{"2rc", "(Ω(n log n) LB)"},
		{"3rc", "(Ω(n log n) LB)"},
		{"3-cliques", "(Ω(n log n) LB)"},
	}
	for _, row := range rows {
		c, err := protocols.Lookup(row.key)
		if err != nil {
			return err
		}
		sizes := experiments.Table2Sizes(row.key)
		if quick && len(sizes) > 3 {
			sizes = sizes[:3]
		}
		series, err := experiments.MeasureProtocol(c, sizes, trials, seed, engine)
		if err != nil {
			return err
		}
		alpha, err := series.FitExponent()
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %-7d %-18s %-10.2f ", row.key, c.Proto.Size(), row.paperTime, alpha)
		for _, p := range series.Points {
			fmt.Printf("n=%d:%.0f ", p.N, p.Mean)
		}
		fmt.Println()
	}
	// Graph-Replication needs its input-graph initial configuration.
	sizes := experiments.Table2Sizes("graph-replication")
	if quick {
		sizes = sizes[:2]
	}
	series, err := experiments.MeasureReplication(sizes, trials, seed, engine)
	if err != nil {
		return err
	}
	alpha, err := series.FitExponent()
	if err != nil {
		return err
	}
	c := protocols.GraphReplication()
	fmt.Printf("%-22s %-7d %-18s %-10.2f ", "graph-replication", c.Proto.Size(), "Θ(n⁴ log n)", alpha)
	for _, p := range series.Points {
		fmt.Printf("n=%d:%.0f ", p.N, p.Mean)
	}
	fmt.Println()
	return nil
}

func fasterVsFast(trials int, seed uint64, quick bool, engine core.Engine) error {
	sizes := []int{8, 16, 24, 32, 48, 64}
	if quick {
		sizes = sizes[:4]
	}
	cmp, err := experiments.CompareLineProtocols(sizes, trials, seed, engine)
	if err != nil {
		return err
	}
	fmt.Println("Section 7 — Faster-Global-Line vs Fast-Global-Line (mean convergence steps)")
	fmt.Printf("%-8s %-14s %-14s %s\n", "n", "Fast (9 st.)", "Faster (6 st.)", "speedup")
	for i, n := range cmp.Sizes {
		fmt.Printf("%-8d %-14.0f %-14.0f %.2fx\n", n, cmp.Fast[i], cmp.Faster[i], cmp.Fast[i]/cmp.Faster[i])
	}
	return nil
}

// sparsityTable reports the sparsity sweep: convergence of
// Simple-Global-Line and Cycle-Cover under restricted interaction
// topologies of increasing expected degree. The last row (degree
// ≥ n−1) is the complete-graph control.
func sparsityTable(trials int, seed uint64, quick bool, engine core.Engine, model string) error {
	n := 24
	if quick {
		n = 12
	}
	degrees := []float64{2, 4, 8, float64(n - 1)}
	points, err := experiments.SparsitySweep(n, degrees, model, trials, seed, engine)
	if err != nil {
		return err
	}
	fmt.Printf("Sparsity — convergence under restricted interaction graphs (model %s, n=%d)\n", model, n)
	fmt.Printf("%-22s %-8s %-26s %-16s %s\n", "Protocol", "degree", "topology", "mean steps", "converged")
	for _, p := range points {
		topo := p.Topology
		if topo == "" {
			topo = "complete"
		}
		fmt.Printf("%-22s %-8g %-26s %-16.0f %d/%d\n",
			p.Protocol, p.Degree, topo, p.Mean, p.Converged, p.Trials)
	}
	return nil
}
