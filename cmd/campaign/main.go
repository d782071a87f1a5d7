// Command campaign runs a declarative measurement campaign — a grid of
// (protocol, population size, scheduler) points swept over a seed range
// — on a worker pool and writes aggregated series (and optionally raw
// runs) as JSON or CSV.
//
// The grid comes either from a JSON spec file (see internal/campaign's
// Spec, documented in EXPERIMENTS.md) or from flags describing a
// single-item spec:
//
//	campaign -spec sweep.json -workers 8 -format csv -out results.csv
//	campaign -name cycle-cover -sizes 32,64,128 -trials 20 -seed 1
//	campaign -name One-Way-Epidemic -kind process -sizes 64,128
//	campaign -name simple-global-line -sizes 24 -faults "crash@576,crash@1152" -metric largest-component
//	campaign -name cycle-cover -sizes 256 -topology gnp@0.05 -detector quiescence
//	campaign -name global-star -sizes 256 -trials 200 -progress 2s -progress-out progress.ndjson
//	campaign -spec sweep.json -checkpoint sweep.ckpt -resume
//	campaign -list
//
// Aggregates are bit-identical for a fixed spec regardless of -workers
// — and, with -checkpoint/-resume, regardless of how many times the
// process was interrupted along the way. SIGINT/SIGTERM cancel the
// sweep cleanly: partial aggregates are written, the checkpoint gets a
// final flush, and the exit code is non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/processes"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specPath = flag.String("spec", "", "JSON campaign spec file (\"-\" for stdin); overrides the single-item flags")
		name     = flag.String("name", "", "protocol or process name for a single-item campaign (see -list)")
		kind     = flag.String("kind", "protocol", "item kind: protocol, process, or replication")
		sizes    = flag.String("sizes", "16,32,64", "comma-separated population sizes")
		trials   = flag.Int("trials", 10, "trials per grid point")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		sched    = flag.String("schedulers", "uniform", "comma-separated scheduler names")
		metric   = flag.String("metric", "", "measured quantity (default: convergence-time for protocols, steps for processes)")
		engine   = flag.String("engine", "auto", "execution path: auto, baseline, sparse, or batch")
		detector = flag.String("detector", "", "stability predicate: target (default), quiescence, or edge-quiescence; fault and restricted-topology runs default to quiescence")
		faults   = flag.String("faults", "", `fault plan for every item, e.g. "crash@500x2,edge@0.001" (spec files carry their own "faults" field)`)
		topology = flag.String("topology", "", `interaction topology for every item, e.g. "gnp@0.05", "rgg@0.1", "cm@4" (spec files carry their own "topology" field)`)
		inclUnc  = flag.Bool("include-unconverged", false, "fold budget-exhausted runs' metric values into the aggregates (survivability sweeps)")
		maxSteps = flag.Int64("max-steps", 0, "per-run step budget (0 = per-n default)")
		workers  = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-run wall-clock cap (0 = none)")
		freshAlc = flag.Bool("fresh-alloc", false, "disable per-worker run workspaces (every trial allocates fresh state; results are identical, only slower)")
		shardTr  = flag.Int("shard-trials", 0, "trials per checkpoint shard (0 = 32); affects the reduction order, so resumed runs must use the value the checkpoint records")
		ckPath   = flag.String("checkpoint", "", "persist completed work to this file (atomic NDJSON) so an interrupted campaign can continue with -resume")
		ckEvery  = flag.Duration("checkpoint-every", 0, "checkpoint persistence interval (0 = 30s)")
		resume   = flag.Bool("resume", false, "skip the shards already recorded in -checkpoint (a missing file is a fresh start); the resumed campaign's output is bit-identical to an uninterrupted run's")
		retries  = flag.Int("retries", 0, "re-run a transiently failed trial (per-run timeout, first-time panic) up to this many extra times with exponential backoff")
		retryBO  = flag.Duration("retry-backoff", 0, "delay before the first retry, doubling per retry (0 = 100ms)")
		out      = flag.String("out", "", "aggregate output path (default stdout)")
		runsOut  = flag.String("runs-out", "", "also write raw per-run records to this path")
		format   = flag.String("format", "json", "output format: json or csv")
		progress = flag.Duration("progress", 0, "stream progress records (done/total, trials/s, utilization, ETA) to stderr at this interval, e.g. 2s (0 = off)")
		progOut  = flag.String("progress-out", "", "also append progress records as NDJSON to this file (implies a 1s interval if -progress is unset)")
		verbose  = flag.Bool("verbose", false, "log each completed run to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list     = flag.Bool("list", false, "list known protocols and processes, then exit")
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
				fmt.Fprintln(os.Stderr, "campaign:", err)
			}
		}()
	}

	if *list {
		fmt.Println("protocols (kind \"protocol\"):")
		for _, n := range protocols.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("processes (kind \"process\"):")
		for _, n := range processes.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("kind \"replication\": Graph-Replication of a ring on ⌊n/2⌋ nodes")
		return nil
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("unknown format %q (known: json, csv)", *format)
	}

	if *resume && *ckPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	spec, err := loadSpec(*specPath, *name, *kind, *sizes, *trials, *seed, *sched, *metric, *engine, *detector, *faults, *topology, *inclUnc, *maxSteps)
	if err != nil {
		return err
	}
	points, err := spec.Compile()
	if err != nil {
		return err
	}

	// SIGINT and SIGTERM cancel the campaign instead of killing the
	// process: in-flight runs stop, partial aggregates are still
	// written, a configured checkpoint gets a final flush, and the exit
	// code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := campaign.Options{
		Workers:     *workers,
		Timeout:     *timeout,
		KeepRuns:    *runsOut != "",
		FreshAlloc:  *freshAlc,
		ShardTrials: *shardTr,
		Checkpoint:  *ckPath,
		Resume:      *resume,
	}
	if *ckEvery > 0 {
		opts.CheckpointEvery = *ckEvery
	}
	if *retries > 0 {
		opts.Retry = campaign.RetryPolicy{
			MaxAttempts: *retries + 1,
			BaseBackoff: *retryBO,
		}
	}
	if *resume {
		// Execute re-validates the file exhaustively; this peek only
		// feeds the status line.
		if hdr, done, err := campaign.ReadCheckpoint(*ckPath); err == nil {
			fmt.Fprintf(os.Stderr, "campaign: resuming %d/%d shards from %s\n", len(done), hdr.Shards, *ckPath)
		}
	}
	total := 0
	for _, pt := range points {
		total += pt.Trials
	}
	if *verbose {
		done := 0
		opts.OnRun = func(rec campaign.RunRecord) {
			done++
			status := "converged"
			switch {
			case rec.Err != "":
				status = "error: " + rec.Err
			case rec.Stopped:
				status = "stopped"
			case !rec.Converged:
				status = "budget exhausted"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s n=%d %s trial=%d seed=%d: %s (%.0f in %s)\n",
				done, total, rec.Protocol, rec.N, rec.Scheduler, rec.Trial, rec.Seed,
				status, rec.Value, time.Duration(rec.DurationNS))
		}
	}
	if *progress > 0 || *progOut != "" {
		var enc *json.Encoder
		if *progOut != "" {
			f, err := os.Create(*progOut)
			if err != nil {
				return err
			}
			defer f.Close()
			enc = json.NewEncoder(f)
		}
		toStderr := *progress > 0
		opts.ProgressInterval = *progress
		opts.OnProgress = func(p campaign.Progress) {
			// Callbacks are serialized: periodic records come from the
			// pool's ticker goroutine, and the final record only after
			// that goroutine has stopped.
			if toStderr || p.Final {
				fmt.Fprintln(os.Stderr, formatProgress(p))
			}
			if enc != nil {
				if err := enc.Encode(p); err != nil {
					fmt.Fprintln(os.Stderr, "campaign: progress-out:", err)
					enc = nil
				}
			}
		}
	}

	result, runErr := campaign.Execute(ctx, points, opts)
	if runErr != nil && result.Aggregates == nil {
		// Failed before any work happened (bad spec, rejected resume):
		// nothing partial to write.
		return runErr
	}

	// Write outputs even when the campaign was cancelled or errored:
	// partial aggregates are real measurements (cancellation landed at a
	// deterministic record boundary), and the non-zero exit code still
	// tells scripts the sweep is incomplete.
	if err := writeOutput(*out, *format, result.Aggregates, nil); err != nil {
		if runErr == nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "campaign:", err)
	}
	if *runsOut != "" {
		if err := writeOutput(*runsOut, *format, nil, result.Runs); err != nil {
			if runErr == nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "campaign:", err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "campaign: interrupted — outputs hold partial aggregates")
	}
	return runErr
}

// loadSpec reads the spec file or assembles a single-item spec from
// flags. Spec files carry their own "engine", "detector" and "faults"
// fields, so combining -spec with those flags is rejected rather than
// silently ignored.
func loadSpec(specPath, name, kind, sizes string, trials int, seed uint64, sched, metric, engine, detector, faults, topology string, inclUnc bool, maxSteps int64) (campaign.Spec, error) {
	if _, err := core.ParseEngine(engine); err != nil {
		return campaign.Spec{}, err
	}
	plan, err := scenario.ParsePlan(faults)
	if err != nil {
		return campaign.Spec{}, err
	}
	topoSpec, err := core.ParseTopologySpec(topology)
	if err != nil {
		return campaign.Spec{}, err
	}
	if specPath != "" {
		if engine != "" && engine != "auto" {
			return campaign.Spec{}, fmt.Errorf("-engine cannot be combined with -spec; set the spec's \"engine\" field instead")
		}
		if detector != "" {
			return campaign.Spec{}, fmt.Errorf("-detector cannot be combined with -spec; set the spec's \"detector\" field instead")
		}
		if plan != nil {
			return campaign.Spec{}, fmt.Errorf("-faults cannot be combined with -spec; set the spec's \"faults\" field instead")
		}
		if topoSpec != nil {
			return campaign.Spec{}, fmt.Errorf("-topology cannot be combined with -spec; set the spec's \"topology\" field instead")
		}
		if inclUnc {
			return campaign.Spec{}, fmt.Errorf("-include-unconverged cannot be combined with -spec; set the spec's \"include_unconverged\" field instead")
		}
		var r io.Reader = os.Stdin
		if specPath != "-" {
			f, err := os.Open(specPath)
			if err != nil {
				return campaign.Spec{}, err
			}
			defer f.Close()
			r = f
		}
		return campaign.ParseSpec(r)
	}
	if name == "" && kind != "replication" {
		return campaign.Spec{}, fmt.Errorf("either -spec or -name is required (or -list)")
	}
	ns, err := parseSizes(sizes)
	if err != nil {
		return campaign.Spec{}, err
	}
	return campaign.Spec{
		Items:              []campaign.Item{{Name: name, Kind: kind, Sizes: ns}},
		Trials:             trials,
		Seed:               seed,
		Schedulers:         splitList(sched),
		Metric:             metric,
		Engine:             engine,
		Detector:           detector,
		Faults:             plan,
		Topology:           topoSpec,
		IncludeUnconverged: inclUnc,
		MaxSteps:           maxSteps,
	}, nil
}

// formatProgress renders one Progress record as a stderr status line.
func formatProgress(p campaign.Progress) string {
	elapsed := time.Duration(p.ElapsedNS).Round(time.Millisecond)
	if p.Final {
		return fmt.Sprintf("campaign: %d/%d trials on %d workers in %s (%.1f trials/s, %.0f%% utilization)",
			p.Done, p.Total, p.Workers, elapsed, p.TrialsPerSec, p.Utilization*100)
	}
	eta := "?"
	if p.ETANS > 0 {
		eta = time.Duration(p.ETANS).Round(time.Second).String()
	}
	return fmt.Sprintf("progress: %d/%d trials, %.1f trials/s, %.0f%% utilization, ETA %s",
		p.Done, p.Total, p.TrialsPerSec, p.Utilization*100, eta)
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

func parseSizes(s string) ([]int, error) {
	var ns []int
	for _, field := range splitList(s) {
		n, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", field, err)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return ns, nil
}

func splitList(s string) []string {
	var out []string
	for _, field := range strings.Split(s, ",") {
		if field = strings.TrimSpace(field); field != "" {
			out = append(out, field)
		}
	}
	return out
}

// writeOutput writes either aggregates or raw runs (exactly one is
// non-nil) to path, stdout when empty.
func writeOutput(path, format string, aggs []campaign.Aggregate, runs []campaign.RunRecord) error {
	w := io.Writer(os.Stdout)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case aggs != nil && format == "json":
		return campaign.WriteAggregatesJSON(w, aggs)
	case aggs != nil:
		return campaign.WriteAggregatesCSV(w, aggs)
	case format == "json":
		return campaign.WriteRunsJSON(w, runs)
	default:
		return campaign.WriteRunsCSV(w, runs)
	}
}
