#!/bin/sh
# Runs the full §7 experiment sweep twice — cold (fresh cache) and warm
# (fully cached) — and writes machine-readable performance reports to the
# repo root. Every report goes through one artifact writer: a shared
# envelope (schema, seed, host.nproc, hist, profile, and a `gate` list
# naming each gated metric's path and better direction) around the
# family's own fields.
#
#   BENCH_experiment_cold.json   cold sweep, cache.misses == modules
#   BENCH_experiment.json        warm sweep, cache.hits   == modules
#                                (schema localias-bench-experiment/v9,
#                                with the cache block's hit, miss,
#                                quarantine and lock counters and the
#                                latency-histogram block with exact
#                                p50/p90/p95/p99 per stage)
#   BENCH_fuzz.json              differential-fuzzing throughput + FP
#                                rates (schema localias-bench-fuzz/v4)
#   BENCH_scale.json             modules/sec + peak RSS vs corpus size
#                                (schema localias-bench-scale/v4; only
#                                written when BENCH_SCALE=1 — it takes
#                                minutes)
#
# BENCH_experiment_v6.json is not written here: it is a kept v6 artifact
# from before the `gate` block, which scripts/check.sh diffs against a
# fresh one to prove bench-diff still reads old schemas.
#
# After the sweeps, `localias bench-diff` reports warm-vs-cold and — when
# a previous BENCH_experiment.json existed — run-over-run deltas. Both
# reports are informational here (|| true): regressions print but don't
# fail the bench run. CI gates on bench-diff in scripts/check.sh instead.
#
# Usage: scripts/bench.sh [--jobs N] [SEED]
#        (extra args are passed through to `localias experiment`)
# The cache directory defaults to .localias-cache and is recreated so the
# "cold" pass is genuinely cold; override with LOCALIAS_CACHE=dir.
set -eu

cd "$(dirname "$0")/.."

CACHE=${LOCALIAS_CACHE:-.localias-cache}

cargo build --release -p localias-driver

# Keep the previous warm artifact around for the run-over-run report.
if [ -f BENCH_experiment.json ]; then
    cp BENCH_experiment.json BENCH_experiment.prev.json
fi

rm -rf "$CACHE"
./target/release/localias experiment --cache "$CACHE" \
    --bench-out BENCH_experiment_cold.json "$@"
./target/release/localias experiment --cache "$CACHE" \
    --bench-out BENCH_experiment.json "$@"

echo
echo "wrote $(pwd)/BENCH_experiment_cold.json (cold):"
cat BENCH_experiment_cold.json
echo
echo "wrote $(pwd)/BENCH_experiment.json (warm):"
cat BENCH_experiment.json

# What did the cache buy? The warm-vs-cold delta, per metric — wall time
# and phase times should be "improved", throughput likewise; histogram
# percentiles show which stages the cache removes entirely.
echo
echo "bench-diff cold -> warm:"
./target/release/localias bench-diff BENCH_experiment_cold.json \
    BENCH_experiment.json || true

# Run-over-run: this warm sweep against the previous one, when we have
# one. Informational — machine gating happens in check.sh.
if [ -f BENCH_experiment.prev.json ]; then
    echo
    echo "bench-diff previous warm run -> this warm run:"
    ./target/release/localias bench-diff BENCH_experiment.prev.json \
        BENCH_experiment.json || true
fi

# Differential fuzzing: 2,000 generated modules executed under the
# interpreter oracle and checked under all three modes. Exits non-zero
# on any soundness divergence, so the bench sweep doubles as a release
# gate; the artifact records fuzz throughput and the measured
# false-positive rate per mode.
./target/release/localias fuzz --seed 42 --iterations 2000 --profile \
    --bench-out BENCH_fuzz.json

echo
echo "wrote $(pwd)/BENCH_fuzz.json (differential fuzzing):"
cat BENCH_fuzz.json

# The corpus-scale sweep (1k..50k modules) takes minutes, so it only
# runs when explicitly requested.
if [ "${BENCH_SCALE:-0}" = "1" ]; then
    scripts/bench_scale.sh
else
    echo
    echo "skipping corpus-scale sweep (set BENCH_SCALE=1 to run scripts/bench_scale.sh)"
fi
