// Command campaign runs a declarative measurement campaign — a grid of
// (protocol, population size, scheduler) points swept over a seed range
// — on a worker pool and writes aggregated series (and optionally raw
// runs) as JSON or CSV. It runs any registry entry: a network
// constructor, a Table 1 process or Graph-Replication.
//
// The grid comes either from a JSON spec file (see internal/campaign's
// Spec, documented in EXPERIMENTS.md) or from flags describing a
// single-item spec:
//
//	campaign -spec sweep.json -workers 8 -format csv -out results.csv
//	campaign -name cycle-cover -sizes 32,64,128 -trials 20 -seed 1
//	campaign -name One-Way-Epidemic -sizes 64,128
//	campaign -name simple-global-line -sizes 24 -faults "crash@576,crash@1152" -metric largest-component
//	campaign -name cycle-cover -sizes 256 -topology gnp@0.05 -detector quiescence
//	campaign -name cycle-cover -sizes 64 -schedulers uniform,weighted
//	campaign -name global-star -sizes 256 -trials 200 -progress 2s -progress-out progress.ndjson
//	campaign -spec sweep.json -checkpoint sweep.ckpt -resume
//	campaign -name simple-global-line -sizes 48 -trials 2 -trace run.ndjson -dot final.dot
//	campaign -list
//
// On a campaign of one point, -trace and -dot replay one measured
// trial — the last converged one, or the first if none converged —
// and write its NDJSON event trace and its final network as Graphviz
// DOT.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		report(err)
		os.Exit(1)
	}
}

// report prints err on stderr behind exactly one "campaign: " prefix:
// errors from internal/campaign already carry it, the command's own
// errors and those of other packages do not.
func report(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "campaign: ") {
		msg = "campaign: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}

// singleItemFlags describe a single-item spec. A spec file carries its
// own fields, so -spec refuses them rather than ignore them.
var singleItemFlags = []string{"name", "sizes", "trials", "seed", "schedulers", "metric", "engine",
	"detector", "faults", "topology", "include-unconverged", "max-steps"}

func run(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "JSON campaign spec file (\"-\" for stdin); refuses the single-item flags")
		name     = fs.String("name", "", "registry name for a single-item campaign (see -list)")
		sizes    = fs.String("sizes", "16,32,64", "comma-separated population sizes")
		trials   = fs.Int("trials", 10, "trials per grid point")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		sched    = fs.String("schedulers", "uniform", "comma-separated scheduler names")
		metric   = fs.String("metric", "", "measured quantity (default: steps for the Table 1 processes, convergence-time otherwise)")
		engine   = fs.String("engine", "auto", "execution path: auto, baseline, sparse, or batch")
		detector = fs.String("detector", "", "stability predicate: target (default), quiescence, or edge-quiescence; fault and restricted-topology runs default to quiescence")
		faults   = fs.String("faults", "", `fault plan for every item, e.g. "crash@500x2,edge@0.001" (spec files carry their own "faults" field)`)
		topology = fs.String("topology", "", `interaction topology for every item, e.g. "gnp@0.05", "rgg@0.1", "cm@4" (spec files carry their own "topology" field)`)
		inclUnc  = fs.Bool("include-unconverged", false, "fold budget-exhausted runs' metric values into the aggregates (survivability sweeps)")
		maxSteps = fs.Int64("max-steps", 0, "per-run step budget (0 = per-n default)")
		workers  = fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		shardTr  = fs.Int("shard-trials", 0, "trials per checkpoint shard (0 = 32); affects the reduction order, so resumed runs must use the value the checkpoint records")
		ckPath   = fs.String("checkpoint", "", "persist completed work to this file (atomic NDJSON) so an interrupted campaign can continue with -resume")
		ckEvery  = fs.Duration("checkpoint-every", 0, "checkpoint persistence interval (0 = 30s)")
		resume   = fs.Bool("resume", false, "skip the shards already recorded in -checkpoint (a missing file is a fresh start); the resumed campaign's output is bit-identical to an uninterrupted run's")
		out      = fs.String("out", "", "aggregate output path (default stdout)")
		runsOut  = fs.String("runs-out", "", "also write raw per-run records to this path")
		format   = fs.String("format", "json", "output format: json or csv")
		progress = fs.Duration("progress", 0, "stream progress records (done/total, trials/s, utilization, ETA) to stderr at this interval, e.g. 2s (0 = off)")
		progOut  = fs.String("progress-out", "", "also append progress records as NDJSON to this file (implies a 1s interval if -progress is unset)")
		verbose  = fs.Bool("verbose", false, "log each completed run to stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tracePth = fs.String("trace", "", "one-point campaigns: write an NDJSON event trace of a replayed trial to this file")
		dotPath  = fs.String("dot", "", "one-point campaigns: write the replayed trial's final network as Graphviz DOT to this file")
		list     = fs.Bool("list", false, "list the registry names with their state counts and targets, tab-separated, then exit")
	)
	fs.Parse(args)

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
				report(err)
			}
		}()
	}

	if *list {
		for _, name := range protocols.Names() {
			c, err := protocols.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Printf("%s\t%d\t%s\n", name, c.Proto.Size(), c.Target)
		}
		return nil
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("unknown format %q (known: json, csv)", *format)
	}

	if *resume && *ckPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	if *specPath != "" {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(singleItemFlags, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("%s cannot be combined with -spec; set the spec file's fields instead", strings.Join(set, ", "))
		}
	}
	spec, err := loadSpec(*specPath, *name, *sizes, *trials, *seed, *sched, *metric, *engine, *detector, *faults, *topology, *inclUnc, *maxSteps)
	if err != nil {
		return err
	}
	points, err := spec.Compile()
	if err != nil {
		return err
	}
	replay := *tracePth != "" || *dotPath != ""
	if replay && len(points) != 1 {
		return fmt.Errorf("-trace and -dot replay a trial of a one-point campaign; this one has %d points", len(points))
	}

	// SIGINT and SIGTERM cancel the campaign instead of killing the
	// process: in-flight runs stop, partial aggregates are still
	// written, a configured checkpoint gets a final flush, and the exit
	// code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := campaign.Options{
		Workers:     *workers,
		KeepRuns:    *runsOut != "" || replay,
		ShardTrials: *shardTr,
		Checkpoint:  *ckPath,
		Resume:      *resume,
	}
	if *ckEvery > 0 {
		opts.CheckpointEvery = *ckEvery
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
		report(err)
	}
	if *runsOut != "" {
		if err := writeOutput(*runsOut, *format, nil, result.Runs); err != nil {
			if runErr == nil {
				return err
			}
			report(err)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "campaign: interrupted — outputs hold partial aggregates")
		return runErr
	}
	if replay {
		return replayTrial(&points[0], result.Runs, *tracePth, *dotPath)
	}
	return nil
}

// loadSpec reads the spec file or assembles a single-item spec from
// flags.
func loadSpec(specPath, name, sizes string, trials int, seed uint64, sched, metric, engine, detector, faults, topology string, inclUnc bool, maxSteps int64) (campaign.Spec, error) {
	if specPath != "" {
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
	if name == "" {
		return campaign.Spec{}, fmt.Errorf("either -spec or -name is required (or -list)")
	}
	ns, err := parseSizes(sizes)
	if err != nil {
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
	return campaign.Spec{
		Items:              []campaign.Item{{Name: name, Sizes: ns}},
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

// replayTrial re-runs one measured trial of pt through Point.Trial,
// which derives the run the campaign measured: the last converged
// trial of runs, or the first when none converged (a trace of a
// non-converging run is still worth inspecting). A non-empty
// tracePath receives the replay's NDJSON event trace, a non-empty
// dotPath its final network as Graphviz DOT with state labels.
func replayTrial(pt *campaign.Point, runs []campaign.RunRecord, tracePath, dotPath string) error {
	measured := runs[0]
	for _, rec := range runs {
		if rec.Converged {
			measured = rec
		}
	}
	proto, opts, err := pt.Trial(measured.Trial)
	if err != nil {
		return err
	}
	var traceFile *os.File
	var sink *trace.NDJSON
	if tracePath != "" {
		if traceFile, err = os.Create(tracePath); err != nil {
			return err
		}
		defer traceFile.Close()
		sink = trace.NewNDJSON(traceFile)
		opts.Events = sink
	}
	res, err := core.Run(proto, pt.N, opts)
	if err != nil {
		return err
	}
	if sink != nil {
		if err := errors.Join(sink.Flush(), traceFile.Close()); err != nil {
			return err
		}
	}
	if dotPath != "" {
		labels := make([]string, res.Final.N())
		for u := range labels {
			labels[u] = proto.StateName(res.Final.Node(u))
		}
		if err := os.WriteFile(dotPath, []byte(protocols.ActiveGraph(res.Final).DOT(proto.Name(), labels)), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: replayed trial %d (seed %d) on the %s engine\n", measured.Trial, opts.Seed, res.Engine)
	if note := replayNote(measured, res); note != "" {
		fmt.Fprintln(os.Stderr, "campaign:", note)
	}
	return nil
}

// replayNote discloses a replay that diverged from the trial it
// reproduces, which only a batch-engine trial on the pure batched path
// does: the replay's event sink makes the engine exact-step. The note
// names the engine the measured trial ran, from its record. It returns
// "" when the replay matched.
func replayNote(measured campaign.RunRecord, replay core.Result) string {
	if replay.Steps == measured.Steps {
		return ""
	}
	return fmt.Sprintf("note: the measured trial ran the %s engine's batched path; the replay exact-stepped (bit-identical to -engine sparse, equal in law to the measured trial)", measured.Engine)
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
