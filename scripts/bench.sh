#!/usr/bin/env bash
# Regenerates the tracked benchmark artifacts — BENCH_batch.json,
# BENCH_engine.json, BENCH_campaign.json, BENCH_topology.json,
# BENCH_observer.json, BENCH_detector.json, BENCH_stats.json,
# BENCH_index.json, BENCH_universal.json — with the pinned -benchtime
# each suite is calibrated for and five samples per row (-count 5). CI
# runs this script per suite and uploads the files; run it locally
# (optionally with a subset of suite names) to reproduce the numbers
# quoted in ARCHITECTURE.md and EXPERIMENTS.md. The pins
# are part of the artifact contract: trend comparisons across commits
# assume every row was measured with the same iteration count.
set -euo pipefail
cd "$(dirname "$0")/.."

suites="$*"
if [ -z "$suites" ]; then
  suites="batch engine campaign topology observer detector stats index universal"
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
      # Five samples per row: README and EXPERIMENTS.md quote the
      # medians of the alloc=fresh / alloc=workspace ratio. 1000 ops of
      # 32 trials make a sample last about a second; at 3 ops (~3 ms)
      # the medians moved by 1.8x between regenerations.
      go test -run '^$' -bench BenchmarkCampaignThroughput -benchtime 1000x -count 5 -benchmem -json . | tee BENCH_campaign.json
      ;;
    topology)
      # Five samples per row; one op is one whole run, about a second
      # per sample at n = 16384.
      go test -run '^$' -bench BenchmarkTopologyOverhead -benchtime 1x -count 5 -benchmem -json . | tee BENCH_topology.json
      ;;
    observer)
      # The same pin as the campaign suite, five samples per row: the
      # events=off rows are compared with BENCH_campaign.json's
      # alloc=workspace rows.
      go test -run '^$' -bench 'BenchmarkObserverOff|BenchmarkEventStream' -benchtime 1000x -count 5 -benchmem -json . | tee BENCH_observer.json
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
    index)
      # The two enabled-pair indexes in ns per landing, five counts per
      # row: bit rows and census at n = 16, 32, 64, census at 128 — the
      # rows behind the 64-node cut. Each op resolves >= 10^5 landings.
      go test -run '^$' -bench BenchmarkIndex -benchtime 5x -count 5 -benchmem -json ./internal/core | tee BENCH_index.json
      ;;
    universal)
      # The Section 6 constructors, wall time and charged steps per
      # run, five counts per row. One op is one whole pipeline, tens
      # to hundreds of µs; 200 ops make a sample.
      go test -run '^$' -bench BenchmarkUniversal -benchtime 200x -count 5 -benchmem -json . | tee BENCH_universal.json
      ;;
    *)
      echo "unknown suite: $suite (want batch, engine, campaign, topology, observer, detector, stats, index, universal)" >&2
      exit 2
      ;;
  esac
done
