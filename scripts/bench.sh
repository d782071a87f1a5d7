#!/usr/bin/env bash
# Regenerates the tracked benchmark artifacts — BENCH_batch.json,
# BENCH_engine.json, BENCH_campaign.json, BENCH_topology.json,
# BENCH_observer.json, BENCH_detector.json, BENCH_stats.json — with the pinned -benchtime
# (and, for the repeated-sample suites, -count) each suite is
# calibrated for. CI runs this script per suite and uploads the files;
# run it locally (optionally with a subset of suite names) to reproduce
# the numbers quoted in ARCHITECTURE.md and EXPERIMENTS.md. The pins
# are part of the artifact contract: trend comparisons across commits
# assume every row was measured with the same iteration count.
set -euo pipefail
cd "$(dirname "$0")/.."

suites="$*"
if [ -z "$suites" ]; then
  suites="batch engine campaign topology observer detector stats"
fi

for suite in $suites; do
  case "$suite" in
    batch)
      # Five samples: the CI guard reads the median n=65536 speedup.
      go test -run '^$' -bench BenchmarkBatchVsSparse -benchtime 1x -count 5 -benchmem -json . | tee BENCH_batch.json
      ;;
    engine)
      go test -run '^$' -bench BenchmarkSparseVsBaseline -benchtime 1x -count 5 -benchmem -json . | tee BENCH_engine.json
      ;;
    campaign)
      go test -run '^$' -bench BenchmarkCampaignThroughput -benchtime 3x -benchmem -json . | tee BENCH_campaign.json
      ;;
    topology)
      go test -run '^$' -bench BenchmarkTopologyOverhead -benchtime 1x -benchmem -json . | tee BENCH_topology.json
      ;;
    observer)
      go test -run '^$' -bench 'BenchmarkObserverOff|BenchmarkEventStream' -benchtime 3x -benchmem -json . | tee BENCH_observer.json
      ;;
    detector)
      # Repeated samples: the per-call rows run from a few ns to tens of
      # microseconds, so five counts give each row a median and a spread.
      go test -run '^$' -bench BenchmarkDetectorStable -benchtime 20000x -count 5 -benchmem -json ./internal/protocols | tee BENCH_detector.json
      ;;
    stats)
      # The swap-run collapse's sampler draws, ns per draw: five counts
      # per row, from ~10 ns displacements to ~10 µs budget cuts.
      go test -run '^$' -bench BenchmarkSamplers -benchtime 20000x -count 5 -benchmem -json ./internal/stats | tee BENCH_stats.json
      ;;
    *)
      echo "unknown suite: $suite (want batch, engine, campaign, topology, observer, detector, stats)" >&2
      exit 2
      ;;
  esac
done
