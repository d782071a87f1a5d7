// Command figures regenerates machine-produced counterparts of the
// paper's illustrative figures into an output directory:
//
//	fig1_*.dot   spanning-star snapshots (initial / mid / stable)
//	fig2.dot     a typical Simple-Global-Line configuration
//	fig3.txt     the generic-constructor loop trace (Fig. 3)
//	fig4.dot     the U/D partition with its perfect matching
//	fig7.dot     the U/D/M three-way partition
//	fig8.txt     the (U,D,M) construction event trace
//	supernodes.txt  the Theorem 18 layout and triangle application
//	sparsity.txt    convergence vs expected degree under restricted
//	                interaction topologies (the sparsity-sweep figure)
//
// Usage: figures [-n 16] [-seed 1] [-out figures/] [-engine auto] [-topology gnp]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/protocols"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/universal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n      = flag.Int("n", 16, "population size for snapshots")
		seed   = flag.Uint64("seed", 1, "RNG seed")
		out    = flag.String("out", "figures", "output directory")
		engine = flag.String("engine", "auto", "execution path for the snapshot runs: auto, baseline, sparse, or batch")
		topo   = flag.String("topology", "gnp", "topology model for the sparsity figure: gnp or rgg")
	)
	flag.Parse()
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	if err := fig1(*n, *seed, *out, eng); err != nil {
		return err
	}
	if err := fig2(*n, *seed, *out, eng); err != nil {
		return err
	}
	if err := fig3(*n, *seed, *out); err != nil {
		return err
	}
	if err := partitions(*n, *seed, *out, eng); err != nil {
		return err
	}
	if err := supernodes(*seed, *out); err != nil {
		return err
	}
	return sparsityFigure(*n, *seed, *out, eng, *topo)
}

// fig1 reproduces the spanning-star triptych: all-black start, a
// mid-run configuration with several surviving centers, and the stable
// star.
func fig1(n int, seed uint64, out string, engine core.Engine) error {
	c := protocols.GlobalStar()
	rec := trace.NewRecorder(256)
	// The recorder rides the event stream: the run-end event records the
	// terminal configuration, so no explicit Final call is needed.
	if _, err := core.Run(c.Proto, n, core.Options{Seed: seed, Engine: engine, Detector: c.Detector, Events: rec}); err != nil {
		return err
	}
	shots := rec.Select([]float64{0, 0.5, 1})
	names := []string{"fig1a_initial", "fig1b_intermediate", "fig1c_stable"}
	for i, s := range shots {
		if err := writeFile(out, names[i]+".dot", s.DOT(names[i])); err != nil {
			return err
		}
	}
	return nil
}

// fig2 captures a typical mid-run Simple-Global-Line configuration:
// several disjoint lines with l- or w-leaders plus isolated q0 nodes.
func fig2(n int, seed uint64, out string, engine core.Engine) error {
	c := protocols.SimpleGlobalLine()
	rec := trace.NewRecorder(256)
	if _, err := core.Run(c.Proto, n, core.Options{Seed: seed, Engine: engine, Detector: c.Detector, Events: rec}); err != nil {
		return err
	}
	shots := rec.Select([]float64{0.4})
	return writeFile(out, "fig2.dot", shots[0].DOT("fig2"))
}

// fig3 logs the generic constructor's accept/retry loop on a real run.
func fig3(n int, seed uint64, out string) error {
	var log trace.EventLog
	res, err := universal.LinearWasteHalf(tm.Connected(), n, seed)
	if err != nil {
		return err
	}
	log.Addf("construct G1 on k=%d nodes (line-as-TM), useful space %d", n/2, len(res.UsefulNodes))
	for _, ph := range res.PhaseSteps {
		log.Addf("phase %-16s %12d steps", ph.Name, ph.Steps)
	}
	log.Addf("random draws until the TM accepted: %d", res.Attempts)
	log.Addf("output: %v", res.Output)
	return writeFile(out, "fig3.txt", log.String()+"\n")
}

// partitions renders the U/D matching (Fig. 4) and the U/D/M
// partition (Figs. 7–8).
func partitions(n int, seed uint64, out string, engine core.Engine) error {
	p, det := universal.PartitionUD()
	res, err := core.Run(p, n, core.Options{Seed: seed, Engine: engine, Detector: det})
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig4.dot", configDOT(p, res.Final, "fig4")); err != nil {
		return err
	}

	p3, det3 := universal.PartitionUDM()
	res3, err := core.Run(p3, n+n%3, core.Options{Seed: seed, Engine: engine, Detector: det3})
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig7.dot", configDOT(p3, res3.Final, "fig7")); err != nil {
		return err
	}
	var log trace.EventLog
	log.Addf("U/D/M partition on n=%d: converged at step %d (%d effective)",
		res3.Final.N(), res3.ConvergenceTime, res3.EffectiveSteps)
	counts := res3.Final.CountAll(nil)
	for s, c := range counts {
		log.Addf("state %-4s × %d", p3.StateName(core.State(s)), c)
	}
	return writeFile(out, "fig8.txt", log.String()+"\n")
}

func supernodes(seed uint64, out string) error {
	res, err := universal.Supernodes(64, seed)
	if err != nil {
		return err
	}
	var log trace.EventLog
	log.Addf("supernodes: K=%d lines of length %d, waste %d", res.K, res.LineLen, res.Waste)
	for i, line := range res.Lines {
		log.Addf("supernode %2d (name %0*b): nodes %v", i, res.LineLen, res.Names[i], line)
	}
	log.Addf("triangle application: %d triangles", res.Triangles)
	log.Addf("supernode-level graph: %v", res.SupernodeGraph)
	return writeFile(out, "supernodes.txt", log.String()+"\n")
}

// sparsityFigure sweeps Simple-Global-Line and Cycle-Cover over
// restricted interaction topologies of increasing expected degree and
// writes the (degree, mean convergence time) series as a plain-text
// data table — one block per protocol, gnuplot-friendly.
func sparsityFigure(n int, seed uint64, out string, engine core.Engine, model string) error {
	degrees := []float64{1, 2, 4, 8, float64(n - 1)}
	points, err := experiments.SparsitySweep(n, degrees, model, 5, seed, engine)
	if err != nil {
		return err
	}
	var log trace.EventLog
	log.Addf("# sparsity sweep: convergence time vs expected degree (model %s, n=%d)", model, n)
	log.Addf("# degree ≥ n−1 is the complete-graph control row")
	prev := ""
	for _, p := range points {
		if p.Protocol != prev {
			log.Addf("")
			log.Addf("# %s", p.Protocol)
			log.Addf("# %-8s %-14s %-14s %-10s %s", "degree", "mean", "stderr", "converged", "topology")
			prev = p.Protocol
		}
		topo := p.Topology
		if topo == "" {
			topo = "complete"
		}
		log.Addf("%-10g %-14.0f %-14.1f %-10d %s", p.Degree, p.Mean, p.StdErr, p.Converged, topo)
	}
	return writeFile(out, "sparsity.txt", log.String()+"\n")
}

func configDOT(p *core.Protocol, cfg *core.Config, name string) string {
	labels := make([]string, cfg.N())
	for u := 0; u < cfg.N(); u++ {
		labels[u] = p.StateName(cfg.Node(u))
	}
	return protocols.ActiveGraph(cfg).DOT(name, labels)
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
