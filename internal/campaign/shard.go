package campaign

// Shard identity and mergeable aggregates — the crash-safety layer
// under checkpoint.go. A campaign's trial space is cut into a
// deterministic partition of shards (consecutive trial ranges of one
// point each); the collector reduces every shard independently
// (sequential Welford adds in trial order) and then merges shards in
// shard order via stats.Online.Merge. Because the partition and the
// merge order are fixed functions of the point list, the reduction
// tree is identical whether a shard's statistics were computed live or
// loaded from a checkpoint — which is what makes a resumed campaign's
// aggregates bit-identical to an uninterrupted run's. The same
// property lets one sweep be split across processes or machines and
// merged deterministically, the enabler for the planned campaignd
// service.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"

	"repro/internal/stats"
)

// DefaultShardTrials is the default shard granularity: every point's
// trial range is cut into runs of this many consecutive trials. The
// partition is part of the reduction topology — multi-shard aggregates
// depend on it in their last floating-point bits — so it only changes
// through Options.ShardTrials, and checkpoints record it (resume
// validates the match).
const DefaultShardTrials = 32

// Shard is one self-describing unit of campaign work: a consecutive
// trial range of one grid point, carrying everything a worker —
// in-process today, a remote one tomorrow — needs to execute it
// standalone and everything a resuming process needs to validate it.
type Shard struct {
	// Index is the shard's position in the campaign's deterministic
	// shard order (point order, then trial order).
	Index int `json:"shard"`
	// Point is the owning point's index; Protocol and N restate its
	// identity so a checkpoint line is interpretable on its own.
	Point    int    `json:"point"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	// FirstTrial and Trials delimit the trial range
	// [FirstTrial, FirstTrial+Trials); FirstSeed is the RNG seed of the
	// range's first trial (seeds increment by one within the range).
	FirstTrial int    `json:"first_trial"`
	Trials     int    `json:"trials"`
	FirstSeed  uint64 `json:"first_seed"`
}

// planShards cuts every point's trial range into consecutive shards of
// at most shardTrials trials, in point order. The result is the
// campaign's canonical partition: shard k covers the global trial ids
// [start(k), start(k)+Trials), with starts increasing in k.
func planShards(points []Point, shardTrials int) []Shard {
	if shardTrials <= 0 {
		shardTrials = DefaultShardTrials
	}
	var shards []Shard
	for p := range points {
		pt := &points[p]
		for first := 0; first < pt.Trials; first += shardTrials {
			trials := shardTrials
			if first+trials > pt.Trials {
				trials = pt.Trials - first
			}
			shards = append(shards, Shard{
				Index:      len(shards),
				Point:      p,
				Protocol:   pt.Protocol,
				N:          pt.N,
				FirstTrial: first,
				Trials:     trials,
				FirstSeed:  pt.BaseSeed + uint64(first),
			})
		}
	}
	return shards
}

// SpecHash is the canonical identity of a compiled campaign: a hash
// over every field of every point that determines the trial outcomes
// and the reduction topology (plus the shard granularity). A
// checkpoint records it, and resume refuses a file whose hash differs
// — merging shards of a different sweep would be silent corruption.
// Caveat: Metric, Initial and the other funcs on Point cannot be
// hashed; spec-compiled campaigns label them through MetricName and
// the item kind, but API callers with anonymous funcs should not share
// checkpoint paths between campaigns that differ only in code.
func SpecHash(points []Point, shardTrials int) string {
	if shardTrials <= 0 {
		shardTrials = DefaultShardTrials
	}
	h := sha256.New()
	fmt.Fprintf(h, "campaign-spec schema=%d shard-trials=%d points=%d\n",
		checkpointSchema, shardTrials, len(points))
	for i := range points {
		pt := &points[i]
		faults := pt.Faults.String()
		var faultSeed uint64
		if pt.Faults != nil {
			faultSeed = pt.Faults.Seed
		}
		// "dyn=false" is a literal: points once had a dynamic-protocol
		// flag here, and checkpoints written before it went must keep
		// their hash so they still resume.
		fmt.Fprintf(h, "point=%d proto=%q n=%d sched=%q trials=%d seed=%d max=%d check=%d engine=%q metric=%q gate=%d faults=%q faultseed=%d topology=%q unconv=%t dyn=false init=%t expected=%g\n",
			i, pt.Protocol, pt.N, schedulerLabel(*pt), pt.Trials, pt.BaseSeed,
			pt.MaxSteps, pt.CheckInterval, pt.Engine.String(), pt.MetricName,
			int(pt.Detector.Gate), faults, faultSeed, pt.Topology.Label(), pt.IncludeUnconverged,
			pt.Initial != nil, pt.Expected)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildVersion returns the VCS revision stamped into the binary, ""
// when built outside a checkout. Checkpoint headers carry it so a
// resume can refuse to merge shards computed by a different build of
// the simulator (the RNG streams could differ).
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// newAggregate returns the empty aggregate of one point, carrying the
// point's identity labels (the ones Merge checks) and Expected.
func newAggregate(pt *Point) Aggregate {
	return Aggregate{
		Protocol:  pt.Protocol,
		N:         pt.N,
		Scheduler: schedulerLabel(*pt),
		Expected:  pt.Expected,
		Faults:    pt.Faults.String(),
		Topology:  pt.Topology.Label(),
	}
}

// Merge folds the partial aggregate b — another shard of the same
// point, computed live, loaded from a checkpoint, or shipped from
// another process — into a. The integer counters add; the metric
// statistics combine through the Chan/Welford parallel rule
// (stats.Online.Merge), exact in count/min/max and deterministic in
// the moments for a fixed merge order. The identity labels must match;
// a keeps its own metadata (Expected).
func (a *Aggregate) Merge(b Aggregate) error {
	if a.Protocol != b.Protocol || a.N != b.N || a.Scheduler != b.Scheduler || a.Faults != b.Faults || a.Topology != b.Topology {
		return fmt.Errorf("campaign: cannot merge aggregate %s/n=%d/%s/faults=%q/topology=%q into %s/n=%d/%s/faults=%q/topology=%q",
			b.Protocol, b.N, b.Scheduler, b.Faults, b.Topology, a.Protocol, a.N, a.Scheduler, a.Faults, a.Topology)
	}
	a.Trials += b.Trials
	a.Converged += b.Converged
	a.Failures += b.Failures
	a.Stopped += b.Stopped
	a.Panics += b.Panics
	a.TotalSteps += b.TotalSteps
	a.TotalEffectiveSteps += b.TotalEffectiveSteps
	a.TotalSkippedSteps += b.TotalSkippedSteps
	a.FaultsApplied += b.FaultsApplied
	acc := stats.FromState(a.Acc)
	acc.Merge(stats.FromState(b.Acc))
	a.setAcc(acc)
	return nil
}

// setAcc stores the accumulator state and refreshes the summary fields
// derived from it.
func (a *Aggregate) setAcc(o stats.Online) {
	a.Acc = o.State()
	a.Mean = o.Mean()
	a.StdErr = o.StdErr()
	a.StdDev = o.StdDev()
	a.Min = o.Min()
	a.Max = o.Max()
}
