package campaign

// Checkpoint/resume: crash-safe persistence of completed shards. The
// file format is versioned NDJSON — a CheckpointHeader line followed
// by one ShardResult line per completed shard, in shard order — and
// every write replaces the whole file atomically (write a temp file in
// the same directory, fsync, rename over the target), so a SIGKILL at
// any instant leaves either the previous checkpoint or the new one,
// never a torn file. Resume validates the header (schema, spec hash,
// shard granularity, build version) and every shard line against the
// campaign's canonical partition before any work starts, with
// descriptive errors — a malformed or mismatched file is rejected up
// front and can neither crash the pool nor silently corrupt a merge.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// checkpointSchema versions the checkpoint NDJSON format; bump it on
// incompatible record-shape changes (the golden test in
// checkpoint_test.go pins the current shape).
const checkpointSchema = 2

// DefaultCheckpointEvery is the default persistence interval.
const DefaultCheckpointEvery = 30 * time.Second

// CheckpointHeader is the first line of a checkpoint file: the
// identity of the campaign the shards belong to.
type CheckpointHeader struct {
	Schema   int    `json:"schema"`
	SpecHash string `json:"spec_hash"`
	// Version is the VCS revision of the writing binary ("" when built
	// outside a checkout); resume rejects a mismatch when both sides
	// know theirs.
	Version string `json:"version,omitempty"`
	// ShardTrials and Shards pin the shard partition the results were
	// computed under.
	ShardTrials int `json:"shard_trials"`
	Shards      int `json:"shards"`
}

// ShardResult is one completed shard: its identity, its partial
// aggregate (with the raw accumulator state, so it merges exactly),
// and its per-trial records in trial order (replayed on resume so
// OnRun, KeepRuns and the progress counters behave as if the shard had
// just run).
type ShardResult struct {
	Shard
	Agg  Aggregate   `json:"agg"`
	Runs []RunRecord `json:"runs"`
}

// WriteCheckpoint atomically replaces path with a checkpoint file
// holding the header and the given shard results (callers pass them in
// shard order). The write-temp + fsync + rename protocol guarantees
// readers (and crash recovery) always see a complete file.
func WriteCheckpoint(path string, hdr CheckpointHeader, done []ShardResult) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	enc := json.NewEncoder(tmp)
	if err = enc.Encode(hdr); err != nil {
		return fmt.Errorf("campaign: checkpoint: encoding header: %w", err)
	}
	for _, sr := range done {
		if err = enc.Encode(sr); err != nil {
			return fmt.Errorf("campaign: checkpoint: encoding shard %d: %w", sr.Index, err)
		}
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("campaign: checkpoint: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	// Persist the rename itself; best-effort (not all filesystems
	// support fsync on directories).
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadCheckpoint parses a checkpoint file. It returns the header and
// the shard results in file order; structural damage (missing header,
// undecodable line) is reported with the failing record's position.
func ReadCheckpoint(path string) (CheckpointHeader, []ShardResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointHeader{}, nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var hdr CheckpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return CheckpointHeader{}, nil, fmt.Errorf("campaign: checkpoint %s: unreadable header: %w", path, err)
	}
	var done []ShardResult
	for i := 0; ; i++ {
		var sr ShardResult
		if err := dec.Decode(&sr); err != nil {
			if errors.Is(err, io.EOF) {
				return hdr, done, nil
			}
			return CheckpointHeader{}, nil, fmt.Errorf("campaign: checkpoint %s: unreadable shard record %d: %w", path, i, err)
		}
		done = append(done, sr)
	}
}

// loadResume reads and validates the checkpoint at path against the
// campaign's own header, partition and point list. A missing file is a
// fresh start (nil map, nil error); anything structurally or
// semantically inconsistent is a descriptive error, never a panic.
func loadResume(path string, hdr CheckpointHeader, shards []Shard, points []Point) (map[int]ShardResult, error) {
	got, done, err := ReadCheckpoint(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if got.Schema != hdr.Schema {
		return nil, fmt.Errorf("campaign: checkpoint %s: schema %d, this binary writes schema %d", path, got.Schema, hdr.Schema)
	}
	if got.SpecHash != hdr.SpecHash {
		return nil, fmt.Errorf("campaign: checkpoint %s was written for a different campaign (spec hash %.12s…, want %.12s…)", path, got.SpecHash, hdr.SpecHash)
	}
	if got.ShardTrials != hdr.ShardTrials || got.Shards != hdr.Shards {
		return nil, fmt.Errorf("campaign: checkpoint %s: shard partition %d×%d trials, want %d×%d", path, got.Shards, got.ShardTrials, hdr.Shards, hdr.ShardTrials)
	}
	if got.Version != "" && hdr.Version != "" && got.Version != hdr.Version {
		return nil, fmt.Errorf("campaign: checkpoint %s was written by build %.12s…, this binary is %.12s… (results could diverge; delete the checkpoint to start over)", path, got.Version, hdr.Version)
	}
	resumed := make(map[int]ShardResult, len(done))
	for _, sr := range done {
		if err := validateShardResult(sr, shards, points); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
		}
		if _, dup := resumed[sr.Index]; dup {
			return nil, fmt.Errorf("campaign: checkpoint %s: duplicate record for shard %d", path, sr.Index)
		}
		resumed[sr.Index] = sr
	}
	return resumed, nil
}

// validateShardResult cross-checks one checkpointed shard against the
// canonical partition: identity, record count, and per-record
// point/trial/seed assignment. The collector indexes aggregates and
// points by these fields, so nothing unvalidated reaches it.
func validateShardResult(sr ShardResult, shards []Shard, points []Point) error {
	if sr.Index < 0 || sr.Index >= len(shards) {
		return fmt.Errorf("shard index %d outside the campaign's %d-shard plan", sr.Index, len(shards))
	}
	if want := shards[sr.Index]; sr.Shard != want {
		return fmt.Errorf("shard %d identity %+v does not match the plan's %+v", sr.Index, sr.Shard, want)
	}
	if len(sr.Runs) != sr.Trials {
		return fmt.Errorf("shard %d carries %d run records, want %d", sr.Index, len(sr.Runs), sr.Trials)
	}
	pt := &points[sr.Point]
	for i, rec := range sr.Runs {
		trial := sr.FirstTrial + i
		if rec.Point != sr.Point || rec.Trial != trial || rec.Seed != pt.BaseSeed+uint64(trial) {
			return fmt.Errorf("shard %d run %d is (point=%d trial=%d seed=%d), want (point=%d trial=%d seed=%d)",
				sr.Index, i, rec.Point, rec.Trial, rec.Seed, sr.Point, trial, pt.BaseSeed+uint64(trial))
		}
	}
	if sr.Agg.Trials != sr.Trials || sr.Agg.Converged+sr.Agg.Failures != sr.Agg.Trials {
		return fmt.Errorf("shard %d aggregate counts (trials=%d converged=%d failures=%d) are inconsistent with its %d-trial range",
			sr.Index, sr.Agg.Trials, sr.Agg.Converged, sr.Agg.Failures, sr.Trials)
	}
	if sr.Agg.Protocol != pt.Protocol || sr.Agg.N != pt.N {
		return fmt.Errorf("shard %d aggregate is labelled %s/n=%d, want %s/n=%d",
			sr.Index, sr.Agg.Protocol, sr.Agg.N, pt.Protocol, pt.N)
	}
	return nil
}

// checkpointer is Execute's handle on the checkpoint file: it owns the
// set of completed shards (seeded with the resumed ones, so an early
// second interruption never drops them from the file) and rewrites the
// file atomically at the configured interval and once more at the end.
// It is driven only from the collector goroutine.
type checkpointer struct {
	path      string
	every     time.Duration
	hdr       CheckpointHeader
	done      map[int]ShardResult
	dirty     bool
	lastFlush time.Time
}

func newCheckpointer(path string, every time.Duration, hdr CheckpointHeader) *checkpointer {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &checkpointer{
		path:      path,
		every:     every,
		hdr:       hdr,
		done:      make(map[int]ShardResult),
		lastFlush: time.Now(),
	}
}

// seed installs the resumed shards without marking the file dirty
// (they are already on disk).
func (c *checkpointer) seed(resumed map[int]ShardResult) {
	for idx, sr := range resumed {
		c.done[idx] = sr
	}
}

// add records a newly completed shard.
func (c *checkpointer) add(sr ShardResult) {
	c.done[sr.Index] = sr
	c.dirty = true
}

// maybeFlush rewrites the file if the interval elapsed since the last
// write and there is something new to persist.
func (c *checkpointer) maybeFlush() error {
	if !c.dirty || time.Since(c.lastFlush) < c.every {
		return nil
	}
	return c.flush()
}

// flush unconditionally rewrites the file when dirty.
func (c *checkpointer) flush() error {
	if !c.dirty {
		return nil
	}
	idxs := make([]int, 0, len(c.done))
	for idx := range c.done {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	ordered := make([]ShardResult, 0, len(idxs))
	for _, idx := range idxs {
		ordered = append(ordered, c.done[idx])
	}
	if err := WriteCheckpoint(c.path, c.hdr, ordered); err != nil {
		return err
	}
	c.dirty = false
	c.lastFlush = time.Now()
	return nil
}
