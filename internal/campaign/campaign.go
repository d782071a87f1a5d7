// Package campaign is the concurrent sweep engine behind every
// measurement in this repository. A campaign is a grid of points —
// (protocol, population size, scheduler) cells, each measured over a
// seed range — that the engine fans out over a worker pool, one
// goroutine per CPU by default, streaming per-run core.Results through
// a collector into online aggregates.
//
// Trials with independent seeds are embarrassingly parallel, but
// floating-point reduction is not associative, so the collector replays
// completions in global trial order (holding out-of-order arrivals in a
// small reorder buffer) before folding them into stats.Online
// accumulators. A campaign therefore produces bit-identical aggregates
// at workers=1 and workers=N — the sequential semantics of the old
// hand-rolled trial loops, at parallel speed.
//
// A trial is a function of its point and seed: the step budget is its
// only cut, and cancellation through context.Context (plugged into the
// simulator via core.Options.Stop) is the only thing that ends it
// early, so every completed record is a function of the spec alone.
// The engine also offers a progress callback invoked in deterministic
// order, and JSON/CSV export of both raw runs and aggregated series
// (see export.go). Declarative specs — the JSON format accepted by
// cmd/campaign — compile to points in spec.go.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Metric extracts the measured value from a finished run. n is the
// population size of the point (for normalized metrics such as
// parallel time).
type Metric func(res core.Result, n int) float64

// Built-in metrics. MetricConvergenceTime is the paper's running time
// and the default; MetricSteps is the detection step, the right
// quantity for the Table 1 processes whose predicate flips exactly at
// convergence.
func MetricConvergenceTime(res core.Result, _ int) float64 { return float64(res.ConvergenceTime) }

// MetricSteps returns the step at which stabilization was detected.
func MetricSteps(res core.Result, _ int) float64 { return float64(res.Steps) }

// MetricEffectiveSteps returns the number of effective interactions.
func MetricEffectiveSteps(res core.Result, _ int) float64 { return float64(res.EffectiveSteps) }

// MetricEdgeChanges returns the number of edge-changing interactions.
func MetricEdgeChanges(res core.Result, _ int) float64 { return float64(res.EdgeChanges) }

// MetricParallelTime returns the footnote-5 parallel-time estimate.
func MetricParallelTime(res core.Result, n int) float64 { return res.ParallelTime(n) }

// MetricLargestComponent returns the size of the largest connected
// component of the final output graph — the nodes in Qout plus the
// active edges joining them. It is the survivability measure of fault
// campaigns: crashed nodes leave Qout, so what remains is the largest
// structure the protocol salvaged. NaN when the result carries no final
// configuration (a zero Result).
func MetricLargestComponent(res core.Result, _ int) float64 {
	if res.Final == nil {
		return math.NaN()
	}
	g, _ := protocols.OutputGraph(res.Final)
	size, _ := g.LargestComponent()
	return float64(size)
}

// MetricComponents returns the number of connected components of the
// final output graph (isolated output nodes count as singletons) —
// under crash faults on a line builder this is the "partition into
// smaller lines" count the fault-tolerance literature predicts. NaN
// without a final configuration, like MetricLargestComponent.
func MetricComponents(res core.Result, _ int) float64 {
	if res.Final == nil {
		return math.NaN()
	}
	g, _ := protocols.OutputGraph(res.Final)
	_, count := g.LargestComponent()
	return float64(count)
}

// Point is one fully-resolved cell of a campaign grid: a protocol on a
// population size under a scheduler, measured over Trials runs with
// seeds BaseSeed, BaseSeed+1, … Spec.Compile builds them; Trial
// derives each trial's run from them.
type Point struct {
	// Protocol, N and Scheduler label the point in records and
	// aggregates. Scheduler is informational; the factory below decides
	// the actual schedule ("" means uniform).
	Protocol  string
	N         int
	Scheduler string

	// Trials is the number of independent runs; seeds are BaseSeed+t
	// for t in [0, Trials).
	Trials   int
	BaseSeed uint64

	// Proto and Detector drive core.Run. MaxSteps and CheckInterval
	// pass through to core.Options (zero means the engine defaults).
	Proto         *core.Protocol
	Detector      core.Detector
	MaxSteps      int64
	CheckInterval int64

	// Engine selects the core execution path for this point's runs;
	// the zero value core.EngineAuto picks the batch engine under the
	// uniform scheduler up to 2²⁰ nodes and the baseline loop
	// otherwise.
	Engine core.Engine

	// Metric extracts the measured value; nil means
	// MetricConvergenceTime. MetricName, when set, labels the metric
	// for checkpoint identity (Compile fills it from the spec; direct
	// API callers may leave it empty, see SpecHash).
	Metric     Metric
	MetricName string

	// Expected is the analytic reference value for this point (0 when
	// none applies); it is copied onto the aggregate.
	Expected float64

	// Initial, when non-nil, builds the initial configuration for a
	// trial (it may return the same *core.Config every time — core.Run
	// clones it). Nil means the all-q0 configuration.
	Initial func(trial int) (*core.Config, error)

	// NewScheduler, when non-nil, is invoked once per run so stateful
	// schedulers (round-robin, permutation) are never shared across
	// goroutines. Nil means the uniform scheduler.
	NewScheduler func() core.Scheduler

	// Faults, when non-nil, injects the plan into every run of this
	// point: each trial mints a fresh injector seeded from its run
	// seed, so trials are independent and reproducible. Plans that
	// crash nodes run an augmented protocol (the crash sink of
	// scenario.Crashable) and therefore require the default all-q0
	// initial configuration — a caller-built Initial would belong to
	// the unaugmented protocol.
	Faults *scenario.FaultPlan

	// Topology, when non-nil, restricts every run of this point to a
	// permitted interaction graph: each trial realizes its own random
	// instance from the trial seed (core.TopologySpec.Realize), so
	// trials sample independent graphs from the same model and stay
	// reproducible. Nil means the complete graph — the classic
	// population-protocol scheduler.
	Topology *core.TopologySpec

	// IncludeUnconverged additionally folds the metric of runs that
	// exhausted their step budget into the aggregate (they still count
	// as Failures). Survivability campaigns measure the final
	// configuration at a fixed budget, where "the run kept going" is
	// data, not a measurement failure. The budget is the deterministic
	// cut of a run that never stabilizes; Stopped (cancelled) runs stay
	// excluded — their cut point depends on when the campaign was
	// cancelled, not on the spec.
	IncludeUnconverged bool

	// prepared caches the fault plan resolved against Proto (possibly
	// an augmented protocol); Execute fills it during validation.
	prepared *scenario.Prepared
}

// Trial returns the protocol and core options that trial t of the
// point runs with: the seed BaseSeed+t, the trial's initial
// configuration, a fresh scheduler, the topology realized from the
// seed and, under a fault plan, the augmented protocol with a fresh
// injection. It is the one derivation of a trial's run, so core.Run on
// its result reproduces the campaign's record of that trial.
func (pt *Point) Trial(t int) (*core.Protocol, core.Options, error) {
	seed := pt.BaseSeed + uint64(t)
	opts := core.Options{
		Seed:          seed,
		Engine:        pt.Engine,
		Detector:      pt.Detector,
		MaxSteps:      pt.MaxSteps,
		CheckInterval: pt.CheckInterval,
	}
	if pt.NewScheduler != nil {
		opts.Scheduler = pt.NewScheduler()
	}
	if pt.Initial != nil {
		initial, err := pt.Initial(t)
		if err != nil {
			return nil, opts, err
		}
		opts.Initial = initial
	}
	if pt.Topology != nil {
		// Each trial realizes its own topology instance from the trial
		// seed, so trials sample independent graphs from the same model
		// and a record is reproducible from (spec, seed) alone.
		topo, err := pt.Topology.Realize(pt.N, seed)
		if err != nil {
			return nil, opts, err
		}
		opts.Topology = topo
	}
	if pt.Faults == nil {
		return pt.Proto, opts, nil
	}
	pr := pt.prepared
	if pr == nil {
		// A point Execute has not validated resolves its plan here.
		var err error
		if pr, err = pt.Faults.Prepare(pt.Proto); err != nil {
			return nil, opts, err
		}
	}
	opts.Injector = pr.NewInjection(seed)
	return pr.Proto, opts, nil
}

// RunRecord is the raw outcome of one trial, as streamed to the
// progress callback and retained when Options.KeepRuns is set.
type RunRecord struct {
	Point           int     `json:"point"`
	Protocol        string  `json:"protocol"`
	N               int     `json:"n"`
	Scheduler       string  `json:"scheduler"`
	Trial           int     `json:"trial"`
	Seed            uint64  `json:"seed"`
	Engine          string  `json:"engine,omitempty"`
	Converged       bool    `json:"converged"`
	Stopped         bool    `json:"stopped,omitempty"`
	Steps           int64   `json:"steps"`
	ConvergenceTime int64   `json:"convergence_time"`
	EffectiveSteps  int64   `json:"effective_steps"`
	EdgeChanges     int64   `json:"edge_changes"`
	Value           float64 `json:"value"`
	// Faults is the point's fault plan in flag syntax ("" without one);
	// the three tallies count the faults actually applied to this run.
	Faults             string `json:"faults,omitempty"`
	FaultCrashes       int64  `json:"fault_crashes,omitempty"`
	FaultEdgeDeletions int64  `json:"fault_edge_deletions,omitempty"`
	FaultResets        int64  `json:"fault_resets,omitempty"`
	// Topology is the point's interaction-topology spec in flag syntax
	// ("" for the complete graph; each trial realizes its own instance
	// from the trial seed).
	Topology string `json:"topology,omitempty"`
	// Engine telemetry from core.Result.Metrics. Only the
	// mode-invariant counters appear here — fields like wall time or
	// workspace resets would differ between allocation modes and break
	// the record-level determinism contract (fresh and workspace runs
	// produce identical records up to DurationNS).
	SkippedSteps          int64 `json:"skipped_steps,omitempty"`
	SkipBatches           int64 `json:"skip_batches,omitempty"`
	SampleRejections      int64 `json:"sample_rejections,omitempty"`
	BucketDraws           int64 `json:"bucket_draws,omitempty"`
	ExactFallbackLandings int64 `json:"exact_fallback_landings,omitempty"`
	CollapsedLandings     int64 `json:"collapsed_landings,omitempty"`
	FastForwardEpochs     int64 `json:"fast_forward_epochs,omitempty"`
	// DurationNS is wall-clock and therefore the one nondeterministic
	// field of a record.
	DurationNS int64  `json:"duration_ns"`
	Err        string `json:"err,omitempty"`
	// Panicked marks a trial that panicked (the message is in Err).
	// Unlike plain Err records — which abort the whole campaign — a
	// panicked record only counts as a failure: the worker pool keeps
	// running and the poisoned workspace is discarded (see trial.go).
	Panicked bool `json:"panicked,omitempty"`
}

// Aggregate is the reduced series entry for one point: summary
// statistics of the metric over converged runs, plus failure counts.
// For a fixed point list and seed range it is bit-identical regardless
// of Options.Workers — and, because the reduction is shard-structured
// (see shard.go), regardless of whether any shards were resumed from a
// checkpoint.
type Aggregate struct {
	Protocol  string `json:"protocol"`
	N         int    `json:"n"`
	Scheduler string `json:"scheduler"`
	Trials    int    `json:"trials"`
	Converged int    `json:"converged"`
	Failures  int    `json:"failures"`
	Stopped   int    `json:"stopped"`
	// Panics counts the failures that were recovered worker panics.
	Panics int     `json:"panics,omitempty"`
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Acc is the raw Welford accumulator state behind the five summary
	// fields above. Carrying it makes aggregates mergeable after the
	// fact (Merge): checkpoint shards, partial exports, and eventually
	// sweeps split across machines combine exactly instead of
	// re-deriving moments from rounded summaries.
	Acc      stats.OnlineState `json:"acc"`
	Expected float64           `json:"expected,omitempty"`
	// Faults labels the point's fault plan in flag syntax ("" without
	// one), so fault sweeps stay distinguishable in exported series.
	Faults string `json:"faults,omitempty"`
	// Topology labels the point's interaction topology in flag syntax
	// ("" for the complete graph), so sparsity sweeps stay
	// distinguishable in exported series.
	Topology string `json:"topology,omitempty"`
	// Deterministic integer totals over this point's non-error runs
	// (converged or not): scheduler steps, effective steps, geometric
	// skips, and faults applied. Integer sums are order-independent, so
	// these stay bit-identical regardless of Workers, exactly like the
	// metric statistics above.
	TotalSteps          int64 `json:"total_steps,omitempty"`
	TotalEffectiveSteps int64 `json:"total_effective_steps,omitempty"`
	TotalSkippedSteps   int64 `json:"total_skipped_steps,omitempty"`
	FaultsApplied       int64 `json:"faults_applied,omitempty"`
}

// Options configures campaign execution.
type Options struct {
	// Workers is the number of concurrent runs; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// KeepRuns retains every RunRecord (in deterministic global order)
	// on the returned Outcome.
	KeepRuns bool
	// OnRun, when non-nil, receives each record as it is folded into
	// the aggregates — in deterministic global order, so a record may
	// be delivered a little after its run finished.
	OnRun func(RunRecord)
	// OnProgress, when non-nil, receives periodic Progress records while
	// the campaign runs — every ProgressInterval from a dedicated
	// goroutine (so it must be safe to call concurrently with OnRun),
	// plus one Final record from Execute's goroutine after the last run
	// completes. With OnProgress nil the worker pool maintains no
	// progress counters at all.
	OnProgress func(Progress)
	// ProgressInterval is the period of OnProgress records; ≤ 0 means
	// one second.
	ProgressInterval time.Duration
	// ShardTrials overrides the trial-partition granularity
	// (DefaultShardTrials when ≤ 0). The partition is part of the
	// reduction topology — multi-shard aggregates depend on it in their
	// last floating-point bits — so checkpoints record it and Resume
	// validates the match.
	ShardTrials int
	// Checkpoint, when non-empty, is the path of the campaign's
	// crash-safety file: completed shards are persisted there
	// atomically (write-temp + fsync + rename, versioned NDJSON) every
	// CheckpointEvery and once more before Execute returns — including
	// when the campaign is cancelled.
	Checkpoint string
	// CheckpointEvery is the persistence interval; ≤ 0 means
	// DefaultCheckpointEvery.
	CheckpointEvery time.Duration
	// Resume loads the Checkpoint file when it exists (a missing file
	// is a fresh start) and skips its completed shards: their records
	// replay from the file — through OnRun, KeepRuns and the progress
	// counters — and their aggregates merge exactly as live shards
	// would, so a resumed campaign's Outcome is bit-identical to an
	// uninterrupted run's. Every checkpointed shard is a function of
	// the spec alone: a shard holding a cancelled (Stopped) run is
	// never checkpointed, so a resume re-runs it. The file must match
	// this campaign's spec hash, schema, shard partition and build
	// version; mismatches are errors, reported before any trial runs
	// and before the file could be overwritten.
	Resume bool
}

// Progress is a point-in-time view of a running campaign, streamed to
// Options.OnProgress (and, through cmd/campaign's -progress flags, to
// stderr or an NDJSON file).
type Progress struct {
	// Done of Total trials have completed.
	Done  int `json:"done"`
	Total int `json:"total"`
	// ElapsedNS is the campaign wall-clock time so far.
	ElapsedNS int64 `json:"elapsed_ns"`
	// TrialsPerSec is the overall completion rate since the campaign
	// started.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// ETANS estimates the remaining wall-clock time from the overall
	// rate; 0 when no trial has finished yet or the campaign is done.
	ETANS int64 `json:"eta_ns,omitempty"`
	// Workers is the pool size; Utilization the fraction of the pool's
	// wall-clock capacity spent inside runs (busy time divided by
	// elapsed × workers).
	Workers     int     `json:"workers"`
	Utilization float64 `json:"utilization"`
	// Final marks the one record emitted after the last run completes.
	Final bool `json:"final,omitempty"`
}

// progressSnapshot assembles a Progress record from the pool's atomic
// counters.
func progressSnapshot(start time.Time, total, workers int, done, busy *atomic.Int64, final bool) Progress {
	d := int(done.Load())
	elapsed := time.Since(start).Nanoseconds()
	p := Progress{Done: d, Total: total, ElapsedNS: elapsed, Workers: workers, Final: final}
	if elapsed > 0 {
		p.TrialsPerSec = float64(d) * 1e9 / float64(elapsed)
		p.Utilization = float64(busy.Load()) / (float64(elapsed) * float64(workers))
	}
	if d > 0 && d < total && p.TrialsPerSec > 0 {
		p.ETANS = int64(float64(total-d) / p.TrialsPerSec * 1e9)
	}
	return p
}

// Outcome is the result of executing a campaign.
type Outcome struct {
	// Aggregates has one entry per point, in point order.
	Aggregates []Aggregate
	// Runs holds the raw records in global order when Options.KeepRuns
	// was set.
	Runs []RunRecord
	// Workers is the worker count actually used; Elapsed the campaign
	// wall-clock time.
	Workers int
	Elapsed time.Duration
}

type taggedRecord struct {
	gid int
	rec RunRecord
}

// Execute runs every trial of every point on a worker pool and reduces
// the results in deterministic order. It returns early with ctx's
// error when cancelled and with the first run error otherwise; both
// cancel all in-flight runs via core.Options.Stop. Recovered trial
// panics are not errors: they become failed records and the sweep
// continues (see trial.go). Even on early return the partial Outcome
// is populated with everything reduced so far, and a configured
// checkpoint receives a final flush — crash-safe campaigns resume from
// it via Options.Resume.
func Execute(ctx context.Context, points []Point, opts Options) (Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := prepare(points); err != nil {
		return Outcome{}, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The canonical shard partition: consecutive trial ranges in point
	// order. Global trial ids number the trials in that same order —
	// point p's trial t has gid offsets[p]+t, and shard s covers
	// [shardStart[s], shardStart[s]+s.Trials). The collector folds
	// records in increasing gid order, which fixes the reduction order
	// independently of scheduling.
	shardTrials := opts.ShardTrials
	if shardTrials <= 0 {
		shardTrials = DefaultShardTrials
	}
	shards := planShards(points, shardTrials)
	shardStart := make([]int, len(shards))
	total := 0
	for i, s := range shards {
		shardStart[i] = total
		total += s.Trials
	}
	offsets := make([]int, len(points))
	for i, gid := 0, 0; i < len(points); i++ {
		offsets[i] = gid
		gid += points[i].Trials
	}
	if workers > total {
		workers = total
	}

	// Checkpoint/resume plumbing. Resume validation happens before any
	// trial runs — and before the file could be overwritten — so a
	// mismatched or malformed checkpoint is a clean error, not lost
	// work.
	if opts.Resume && opts.Checkpoint == "" {
		return Outcome{}, errors.New("campaign: Options.Resume requires Options.Checkpoint")
	}
	var ck *checkpointer
	var resumed map[int]ShardResult
	if opts.Checkpoint != "" {
		hdr := CheckpointHeader{
			Schema:      checkpointSchema,
			SpecHash:    SpecHash(points, shardTrials),
			Version:     buildVersion(),
			ShardTrials: shardTrials,
			Shards:      len(shards),
		}
		ck = newCheckpointer(opts.Checkpoint, opts.CheckpointEvery, hdr)
		if opts.Resume {
			var err error
			resumed, err = loadResume(opts.Checkpoint, hdr, shards, points)
			if err != nil {
				return Outcome{}, err
			}
			ck.seed(resumed)
		}
	}

	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Progress counters are maintained only when someone is listening;
	// the periodic reporter runs on its own goroutine so a slow
	// OnProgress callback never stalls the pool.
	progressOn := opts.OnProgress != nil
	var doneTrials, busyNS atomic.Int64
	var progressWG sync.WaitGroup
	progressQuit := make(chan struct{})
	if progressOn {
		interval := opts.ProgressInterval
		if interval <= 0 {
			interval = time.Second
		}
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					opts.OnProgress(progressSnapshot(start, total, workers, &doneTrials, &busyNS, false))
				case <-progressQuit:
					return
				}
			}
		}()
	}

	jobs := make(chan int, workers)
	results := make(chan taggedRecord, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One workspace per worker for its whole job stream: every
			// trial after the worker's first reuses the backing arrays
			// (configuration, engine index, RNG) instead of reallocating
			// them, so steady-state campaign throughput is bounded by the
			// simulation, not the allocator. Workspaces never change a
			// result bit, so aggregates stay independent of Workers.
			// runTrial may replace the workspace behind the pointer: a
			// panicking trial poisons it, and poisoned state is never
			// reused.
			ws := core.NewWorkspace()
			for gid := range jobs {
				if runCtx.Err() != nil {
					continue // drain without running
				}
				var rec RunRecord
				if p, t, err := locate(offsets, points, gid); err != nil {
					rec = RunRecord{Point: -1, Err: err.Error()}
				} else {
					rec = runTrial(runCtx, &points[p], p, t, &ws)
				}
				tr := taggedRecord{gid: gid, rec: rec}
				if progressOn {
					doneTrials.Add(1)
					busyNS.Add(tr.rec.DurationNS)
				}
				results <- tr
			}
		}()
	}
	go func() {
		defer close(jobs)
		for si := range shards {
			if _, ok := resumed[si]; ok {
				continue // completed by a previous process; replays below
			}
			for t := 0; t < shards[si].Trials; t++ {
				select {
				case jobs <- shardStart[si] + t:
				case <-runCtx.Done():
					return
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: reorder buffer + in-order fold, shard-structured.
	// Records fold into the open shard's own Welford accumulator in
	// trial order; a finished shard merges into its point's aggregate
	// via Aggregate.Merge (and is checkpointed). Resumed shards replay
	// at exactly the position their trials would have arrived, so the
	// reduction tree — and therefore every output bit — is identical to
	// an uninterrupted run's.
	out := Outcome{Aggregates: make([]Aggregate, len(points)), Workers: workers}
	for i := range points {
		out.Aggregates[i] = newAggregate(&points[i])
	}
	var firstErr, flushErr error
	firstErrGid := -1
	mergeAgg := func(point int, agg Aggregate) {
		if err := out.Aggregates[point].Merge(agg); err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	deliver := func(rec RunRecord) {
		if opts.KeepRuns {
			out.Runs = append(out.Runs, rec)
		}
		if opts.OnRun != nil {
			opts.OnRun(rec)
		}
	}

	curShard := 0         // shard containing the next expected gid
	var open *ShardResult // in-flight accumulation of shards[curShard]
	var openAcc stats.Online
	// openCut marks an open shard holding a run the campaign's
	// cancellation stopped: such a shard is folded into the partial
	// aggregates but never checkpointed, so a resume re-runs it instead
	// of replaying a cut that an uninterrupted run never makes.
	var openCut bool
	next := 0
	pending := make(map[int]RunRecord, workers)

	openShard := func() {
		s := &shards[curShard]
		open = &ShardResult{
			Shard: *s,
			Agg:   newAggregate(&points[s.Point]),
			Runs:  make([]RunRecord, 0, s.Trials),
		}
		openAcc = stats.Online{}
		openCut = false
	}
	foldRec := func(rec RunRecord) {
		agg := &open.Agg
		agg.Trials++
		if rec.Err == "" {
			agg.TotalSteps += rec.Steps
			agg.TotalEffectiveSteps += rec.EffectiveSteps
			agg.TotalSkippedSteps += rec.SkippedSteps
			agg.FaultsApplied += rec.FaultCrashes + rec.FaultEdgeDeletions + rec.FaultResets
		}
		switch {
		case rec.Err != "":
			agg.Failures++
			if rec.Panicked {
				agg.Panics++
			}
		case rec.Converged:
			agg.Converged++
			openAcc.Add(rec.Value)
		default:
			agg.Failures++
			if rec.Stopped {
				agg.Stopped++
				openCut = true
			} else if points[rec.Point].IncludeUnconverged {
				// Budget exhaustion is a deterministic cut point, so
				// the value measured there is data (survivability
				// campaigns); a cancelled Stopped cut is not.
				openAcc.Add(rec.Value)
			}
		}
		open.Runs = append(open.Runs, rec)
		deliver(rec)
	}
	closeShard := func(complete bool) {
		open.Agg.setAcc(openAcc)
		mergeAgg(open.Point, open.Agg)
		if complete && !openCut && ck != nil {
			ck.add(*open)
			if err := ck.maybeFlush(); err != nil && flushErr == nil {
				flushErr = err
			}
		}
		open = nil
		curShard++
	}
	// advance consumes everything available in gid order at the cursor:
	// checkpointed shards replay whole, live records fold one at a
	// time.
	advance := func() {
		for next < total {
			if open == nil {
				if sr, ok := resumed[curShard]; ok {
					for _, rec := range sr.Runs {
						deliver(rec)
					}
					if progressOn {
						doneTrials.Add(int64(len(sr.Runs)))
					}
					mergeAgg(sr.Point, sr.Agg)
					next += sr.Trials
					curShard++
					continue
				}
			}
			rec, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			if open == nil {
				openShard()
			}
			foldRec(rec)
			next++
			if next == shardStart[curShard]+shards[curShard].Trials {
				closeShard(true)
			}
		}
	}
	advance()
	for tr := range results {
		if tr.rec.Err != "" && !tr.rec.Panicked && (firstErrGid < 0 || tr.gid < firstErrGid) {
			// Hard errors cancel the campaign, recorded out of band:
			// cancellation may break the in-order chain before this gid
			// is reached. Recovered panics are isolated instead — they
			// count as failures and the sweep keeps going.
			firstErr = errors.New(tr.rec.Err)
			firstErrGid = tr.gid
			cancel()
		}
		pending[tr.gid] = tr.rec
		advance()
	}
	if open != nil {
		// Cancellation landed mid-shard: the completed prefix still
		// counts toward the partial aggregates, but an incomplete shard
		// is never checkpointed.
		closeShard(false)
	}
	out.Elapsed = time.Since(start)

	if ck != nil {
		// Final flush — also on cancellation, so an interrupted campaign
		// leaves its freshest state behind for the resume.
		if err := ck.flush(); err != nil && flushErr == nil {
			flushErr = err
		}
	}

	if progressOn {
		close(progressQuit)
		progressWG.Wait()
		opts.OnProgress(progressSnapshot(start, total, workers, &doneTrials, &busyNS, true))
	}

	if err := ctx.Err(); err != nil {
		return out, err
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, flushErr
}

// prepare validates the points and resolves their fault plans
// (compiling crash plans into augmented protocols) in place.
func prepare(points []Point) error {
	for i := range points {
		pt := &points[i]
		if pt.Proto == nil {
			return fmt.Errorf("campaign: point %d has no protocol", i)
		}
		if pt.N < 1 {
			return fmt.Errorf("campaign: point %d (%s): population size must be ≥ 1", i, pt.Protocol)
		}
		if pt.Trials < 1 {
			return fmt.Errorf("campaign: point %d (%s): trials must be ≥ 1", i, pt.Protocol)
		}
		if pt.Faults != nil {
			if pt.Faults.HasCrashes() && pt.Initial != nil {
				return fmt.Errorf("campaign: point %d (%s): crash faults require the default initial configuration (the run protocol is augmented with a crash state)", i, pt.Protocol)
			}
			pr, err := pt.Faults.Prepare(pt.Proto)
			if err != nil {
				return fmt.Errorf("campaign: point %d (%s): %w", i, pt.Protocol, err)
			}
			pt.prepared = pr
		}
		if err := pt.Topology.Validate(pt.N); err != nil {
			return fmt.Errorf("campaign: point %d (%s): %w", i, pt.Protocol, err)
		}
	}
	return nil
}

// locate maps a global trial id back to its (point, trial) pair. An
// out-of-range gid — impossible from the job generator, but cheap to
// defend against — is a descriptive error rather than a panic, so a
// bookkeeping bug surfaces as a failed campaign instead of taking down
// the worker pool.
func locate(offsets []int, points []Point, gid int) (point, trial int, err error) {
	if gid >= 0 {
		// offsets is increasing and short (one entry per grid cell); a
		// linear scan from the back finds the owning point.
		for p := len(offsets) - 1; p >= 0; p-- {
			if gid >= offsets[p] {
				if t := gid - offsets[p]; t < points[p].Trials {
					return p, t, nil
				}
				break
			}
		}
	}
	return 0, 0, fmt.Errorf("campaign: global trial id %d outside the campaign's trial space (%d points)", gid, len(points))
}

func schedulerLabel(pt Point) string {
	if pt.Scheduler != "" {
		return pt.Scheduler
	}
	if pt.NewScheduler != nil {
		if s := pt.NewScheduler(); s != nil {
			return s.Name()
		}
	}
	return core.UniformScheduler{}.Name()
}
