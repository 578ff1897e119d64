#!/bin/sh
# Corpus-scale sweep: modules/sec and peak RSS vs. corpus size, single-
# and two-partition, written to BENCH_scale.json in the repo root
# (schema localias-bench-scale/v3, embedding the obs profile and
# latency-histogram blocks of the largest single-process sweep).
#
# Every point runs in fresh `localias experiment` child processes — one
# per partition, concurrently, over a shared cold cache — so peak RSS is
# per sweep, not cumulative. Two-partition points are validated through
# `localias bench-merge`.
#
# Usage: scripts/bench_scale.sh [SEED] [--sizes N,N,...] [--partitions N,N,...]
#        (extra args are passed through to `localias scale`; defaults are
#        sizes 1000,5000,20000,50000 and partitions 1,2)
set -eu

cd "$(dirname "$0")/.."

cargo build --release -p localias-driver

./target/release/localias scale --bench-out BENCH_scale.json "$@"

echo
echo "wrote $(pwd)/BENCH_scale.json"
