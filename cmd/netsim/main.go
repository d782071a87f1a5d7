// Command netsim runs any registered network constructor on a
// population and reports convergence statistics (and optionally the
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
		name     = flag.String("protocol", "global-star", "protocol name (see -list)")
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
		freshAlc = flag.Bool("fresh-alloc", false, "disable per-worker run workspaces (every trial allocates fresh state; results are identical, only slower)")
		list     = flag.Bool("list", false, "list registered protocols and exit")
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
			fmt.Printf("%-20s %2d states  →  %s\n", name, c.Proto.Size(), c.Target)
		}
		return nil
	}

	c, err := protocols.Lookup(*name)
	if err != nil {
		return err
	}
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		return err
	}
	factory, err := campaign.SchedulerFactory(*sched)
	if err != nil {
		return err
	}
	plan, err := scenario.ParsePlan(*faults)
	if err != nil {
		return err
	}
	topoSpec, err := core.ParseTopologySpec(*topology)
	if err != nil {
		return err
	}
	if err := topoSpec.Validate(*n); err != nil {
		return err
	}
	if topoSpec != nil && topoSpec.Kind == core.TopoComplete {
		topoSpec = nil // an explicit "complete" is the default path
	}
	det := c.Detector
	detOverride, haveDet, err := campaign.ParseDetector(*detector)
	switch {
	case err != nil:
		return err
	case haveDet:
		det = detOverride
	case *detector == "" && (plan != nil || topoSpec != nil):
		// Target detectors assume the fault-free complete-graph goal is
		// reachable; under faults or a restricted topology quiescence is
		// the honest default stop rule. An explicit -detector target
		// keeps the registry detector.
		det = core.QuiescenceDetector()
		fmt.Println("faults or topology present: using the quiescence detector (override with -detector)")
	}
	fmt.Printf("protocol %s (%d states) on n=%d, %d trial(s), %s engine, %s scheduler\n",
		c.Proto.Name(), c.Proto.Size(), *n, *trials, eng, *sched)
	if plan != nil {
		fmt.Printf("fault plan: %s\n", plan)
	}
	if topoSpec != nil {
		fmt.Printf("topology: %s (one realization per trial)\n", topoSpec)
	}

	// SIGINT/SIGTERM cancel in-flight trials instead of killing the
	// process mid-write; the non-zero exit reports the cut.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var lastConvergedSeed, firstSeed uint64
	var lastConvergedSteps, firstSeedSteps int64
	haveConverged := false
	out, err := campaign.Execute(ctx, []campaign.Point{{
		Protocol:     c.Proto.Name(),
		N:            *n,
		Scheduler:    *sched,
		Trials:       *trials,
		BaseSeed:     *seed,
		Proto:        c.Proto,
		Detector:     det,
		Engine:       eng,
		NewScheduler: factory,
		Faults:       plan,
		Topology:     topoSpec,
		Metric:       campaign.MetricConvergenceTime,
	}}, campaign.Options{
		Workers:    *workers,
		FreshAlloc: *freshAlc,
		OnRun: func(rec campaign.RunRecord) {
			if rec.Trial == 0 {
				firstSeed = rec.Seed
				firstSeedSteps = rec.Steps
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
			lastConvergedSeed = rec.Seed
			lastConvergedSteps = rec.Steps
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
		// Replay one trial sequentially — runs are deterministic in
		// (protocol, n, seed, scheduler, faults, engine), so this
		// recovers the exact run the campaign measured: the last
		// converged trial when there is one, the first trial otherwise
		// (a trace of a non-converging run is still worth inspecting).
		// One exception, disclosed below: a batch-engine run that took
		// the pure bucket-plan path cannot be replayed with a sink
		// attached — the sink reroutes the replay to exact stepping
		// (bit-identical to -engine sparse), which is equal in law but
		// not bit-identical to the measured batched trial.
		replaySeed, measuredSteps := firstSeed, firstSeedSteps
		if haveConverged {
			replaySeed, measuredSteps = lastConvergedSeed, lastConvergedSteps
		}
		opts := core.Options{Seed: replaySeed, Engine: eng, Detector: det}
		if topoSpec != nil {
			// The campaign realized this trial's topology from its run
			// seed; the same derivation reproduces the identical graph.
			topo, err := topoSpec.Realize(*n, replaySeed)
			if err != nil {
				return err
			}
			opts.Topology = topo
		}
		proto := c.Proto
		if factory != nil {
			opts.Scheduler = factory()
		}
		if plan != nil {
			prepared, err := plan.Prepare(c.Proto)
			if err != nil {
				return err
			}
			proto = prepared.Proto
			opts.Injector = prepared.NewInjection(replaySeed)
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
		res, err := core.Run(proto, *n, opts)
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
			fmt.Printf("event trace of seed-%d replay written to %s\n", replaySeed, *tracePth)
		}
		if res.Steps != measuredSteps {
			fmt.Printf("note: the measured trial ran the %s engine's batched path; the replay exact-stepped (bit-identical to -engine sparse, equal in law to the measured trial)\n", res.Engine)
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
