// Command netsim runs any registry entry (a network constructor, a
// Table 1 process or Graph-Replication) from its start configuration
// on a population and reports convergence statistics (and optionally the
// final network as DOT). Trials execute concurrently on the campaign
// worker pool; the reported statistics are identical for any -workers
// value.
//
// Usage:
//
//	netsim -protocol global-star -n 50 -trials 5 -seed 1 [-workers 4] [-engine sparse] [-dot]
//	netsim -protocol simple-global-line -n 32 -faults "crash@500x2,edge@0.001"
//	netsim -protocol simple-global-line -n 32 -trace run.ndjson
//	netsim -protocol cycle-cover -n 32 -scheduler weighted
//	netsim -protocol cycle-cover -n 64 -topology gnp@0.05
//	netsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("protocol", "global-star", "registry name (see -list)")
		n        = flag.Int("n", 50, "population size")
		trials   = flag.Int("trials", 3, "independent runs")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		workers  = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		engine   = flag.String("engine", "auto", "execution path: auto, baseline, sparse, or batch")
		sched    = flag.String("scheduler", "uniform", "scheduler: uniform, round-robin, permutation, weighted, or biased")
		faults   = flag.String("faults", "", `fault plan, e.g. "crash@500x2,edge@0.001,reset@1000"`)
		topology = flag.String("topology", "", `interaction topology: complete (default), "gnp@0.05", "rgg@0.1", or "cm@4"`)
		detector = flag.String("detector", "", "stability predicate: target (default), quiescence, or edge-quiescence; fault and restricted-topology runs default to quiescence")
		dot      = flag.Bool("dot", false, "print the final network as Graphviz DOT")
		tracePth = flag.String("trace", "", "write an NDJSON event trace of a replayed trial to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list     = flag.Bool("list", false, "list the registry names and exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			if err := writeHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
			}
		}()
	}

	if *list {
		for _, name := range protocols.Names() {
			c, err := protocols.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-22s %2d states  →  %s\n", name, c.Proto.Size(), c.Target)
		}
		return nil
	}

	plan, err := scenario.ParsePlan(*faults)
	if err != nil {
		return err
	}
	topoSpec, err := core.ParseTopologySpec(*topology)
	if err != nil {
		return err
	}
	points, err := campaign.Spec{
		Items:      []campaign.Item{{Name: *name, Sizes: []int{*n}}},
		Trials:     *trials,
		Seed:       *seed,
		Schedulers: []string{*sched},
		Engine:     *engine,
		Detector:   *detector,
		Faults:     plan,
		Topology:   topoSpec,
	}.Compile()
	if err != nil {
		return err
	}
	pt := &points[0]
	// Compile defaults fault and restricted-topology runs to the
	// quiescence detector; say so.
	if *detector == "" && (pt.Faults != nil || pt.Topology != nil) {
		fmt.Println("faults or topology present: using the quiescence detector (override with -detector)")
	}
	fmt.Printf("protocol %s (%d states) on n=%d, %d trial(s), %s engine, %s scheduler\n",
		pt.Proto.Name(), pt.Proto.Size(), *n, *trials, pt.Engine, *sched)
	if pt.Faults != nil {
		fmt.Printf("fault plan: %s\n", pt.Faults)
	}
	if pt.Topology != nil {
		fmt.Printf("topology: %s (one realization per trial)\n", pt.Topology)
	}

	// SIGINT/SIGTERM cancel in-flight trials instead of killing the
	// process mid-write; the non-zero exit reports the cut.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var firstTrial, lastConverged campaign.RunRecord
	haveConverged := false
	out, err := campaign.Execute(ctx, points, campaign.Options{
		Workers: *workers,
		OnRun: func(rec campaign.RunRecord) {
			if rec.Trial == 0 {
				firstTrial = rec
			}
			if !rec.Converged {
				fmt.Printf("  trial %d: DID NOT CONVERGE within %d steps\n", rec.Trial, rec.Steps)
				return
			}
			faultNote := ""
			if applied := rec.FaultCrashes + rec.FaultEdgeDeletions + rec.FaultResets; applied > 0 {
				faultNote = fmt.Sprintf(", %d faults", applied)
			}
			fmt.Printf("  trial %d: converged at step %d (%d effective, %d edge changes%s)\n",
				rec.Trial, rec.ConvergenceTime, rec.EffectiveSteps, rec.EdgeChanges, faultNote)
			lastConverged = rec
			haveConverged = true
		},
	})
	if err != nil {
		return err
	}
	agg := out.Aggregates[0]
	if agg.Converged > 0 {
		fmt.Printf("mean convergence time: %.0f ± %.0f steps (min %.0f, max %.0f)\n",
			agg.Mean, agg.StdErr, agg.Min, agg.Max)
	}
	if *tracePth != "" || (*dot && haveConverged) {
		// Replay one trial sequentially — Point.Trial derives the run
		// the campaign measured, so this recovers it exactly: the last
		// converged trial when there is one, the first trial otherwise
		// (a trace of a non-converging run is still worth inspecting).
		// One exception, disclosed below: a batch-engine run that took
		// the pure batched path cannot be replayed with a sink
		// attached — the sink reroutes the replay to exact stepping
		// (bit-identical to -engine sparse), which is equal in law but
		// not bit-identical to the measured batched trial.
		measured := firstTrial
		if haveConverged {
			measured = lastConverged
		}
		proto, opts, err := pt.Trial(measured.Trial)
		if err != nil {
			return err
		}
		var traceFile *os.File
		if *tracePth != "" {
			f, err := os.Create(*tracePth)
			if err != nil {
				return err
			}
			traceFile = f
			opts.Events = trace.NewNDJSON(f)
		}
		res, err := core.Run(proto, pt.N, opts)
		if err != nil {
			return err
		}
		if traceFile != nil {
			nd := opts.Events.(*trace.NDJSON)
			if err := nd.Flush(); err != nil {
				return err
			}
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Printf("event trace of seed-%d replay written to %s\n", opts.Seed, *tracePth)
		}
		if note := replayNote(measured, res); note != "" {
			fmt.Println(note)
		}
		if *dot && haveConverged {
			g := protocols.ActiveGraph(res.Final)
			labels := make([]string, res.Final.N())
			for u := 0; u < res.Final.N(); u++ {
				labels[u] = proto.StateName(res.Final.Node(u))
			}
			fmt.Println(g.DOT(proto.Name(), labels))
		}
	}
	return nil
}

// replayNote discloses a replay that diverged from the trial it
// reproduces, which only a batch-engine trial on the pure batched path
// does: the replay's sink reroutes it to exact stepping. The note names
// the engine the measured trial ran, from its record — the replay's
// own engine can differ, since under -engine auto the sink makes auto
// choose sparse. It returns "" when the replay matched.
func replayNote(measured campaign.RunRecord, replay core.Result) string {
	if replay.Steps == measured.Steps {
		return ""
	}
	return fmt.Sprintf("note: the measured trial ran the %s engine's batched path; the replay exact-stepped (bit-identical to -engine sparse, equal in law to the measured trial)", measured.Engine)
}

// writeHeapProfile snapshots the live heap after a final GC, the shape
// pprof's allocation views expect.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
