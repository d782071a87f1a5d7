package campaign

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// WriteAggregatesJSON writes the aggregated series as indented JSON.
func WriteAggregatesJSON(w io.Writer, aggs []Aggregate) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(aggs)
}

// WriteAggregatesCSV writes the aggregated series as CSV with a header
// row.
func WriteAggregatesCSV(w io.Writer, aggs []Aggregate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"protocol", "n", "scheduler", "faults", "topology", "trials", "converged",
		"failures", "stopped", "panics", "mean", "stderr", "stddev", "min",
		"max", "expected", "total_steps", "total_effective_steps",
		"total_skipped_steps", "faults_applied",
	}); err != nil {
		return err
	}
	for _, a := range aggs {
		rec := []string{
			a.Protocol,
			strconv.Itoa(a.N),
			a.Scheduler,
			a.Faults,
			a.Topology,
			strconv.Itoa(a.Trials),
			strconv.Itoa(a.Converged),
			strconv.Itoa(a.Failures),
			strconv.Itoa(a.Stopped),
			strconv.Itoa(a.Panics),
			formatFloat(a.Mean),
			formatFloat(a.StdErr),
			formatFloat(a.StdDev),
			formatFloat(a.Min),
			formatFloat(a.Max),
			formatFloat(a.Expected),
			strconv.FormatInt(a.TotalSteps, 10),
			strconv.FormatInt(a.TotalEffectiveSteps, 10),
			strconv.FormatInt(a.TotalSkippedSteps, 10),
			strconv.FormatInt(a.FaultsApplied, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRunsJSON writes the raw run records as indented JSON.
func WriteRunsJSON(w io.Writer, runs []RunRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(runs)
}

// WriteRunsCSV writes the raw run records as CSV with a header row.
func WriteRunsCSV(w io.Writer, runs []RunRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"point", "protocol", "n", "scheduler", "faults", "topology", "trial", "seed",
		"engine", "converged", "stopped", "steps", "convergence_time",
		"effective_steps", "edge_changes", "skipped_steps", "skip_batches",
		"sample_rejections", "bucket_draws",
		"exact_fallback_landings", "collapsed_landings",
		"fast_forward_epochs", "fault_crashes",
		"fault_edge_deletions", "fault_resets", "value", "duration_ns",
		"panicked", "err",
	}); err != nil {
		return err
	}
	for _, r := range runs {
		rec := []string{
			strconv.Itoa(r.Point),
			r.Protocol,
			strconv.Itoa(r.N),
			r.Scheduler,
			r.Faults,
			r.Topology,
			strconv.Itoa(r.Trial),
			strconv.FormatUint(r.Seed, 10),
			r.Engine,
			strconv.FormatBool(r.Converged),
			strconv.FormatBool(r.Stopped),
			strconv.FormatInt(r.Steps, 10),
			strconv.FormatInt(r.ConvergenceTime, 10),
			strconv.FormatInt(r.EffectiveSteps, 10),
			strconv.FormatInt(r.EdgeChanges, 10),
			strconv.FormatInt(r.SkippedSteps, 10),
			strconv.FormatInt(r.SkipBatches, 10),
			strconv.FormatInt(r.SampleRejections, 10),
			strconv.FormatInt(r.BucketDraws, 10),
			strconv.FormatInt(r.ExactFallbackLandings, 10),
			strconv.FormatInt(r.CollapsedLandings, 10),
			strconv.FormatInt(r.FastForwardEpochs, 10),
			strconv.FormatInt(r.FaultCrashes, 10),
			strconv.FormatInt(r.FaultEdgeDeletions, 10),
			strconv.FormatInt(r.FaultResets, 10),
			formatFloat(r.Value),
			strconv.FormatInt(r.DurationNS, 10),
			strconv.FormatBool(r.Panicked),
			r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatFloat renders a float for CSV, emitting an empty cell for
// non-finite values: spreadsheet tools and pandas' default parsers
// choke on literal "NaN"/"+Inf" tokens in otherwise numeric columns
// (an aggregate over zero converged trials has no mean to report).
func formatFloat(f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return ""
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
