#!/bin/sh
# Corpus-scale sweep: modules/sec and peak RSS vs. corpus size, written
# to BENCH_scale.json in the repo root (schema localias-bench-scale/v4,
# embedding the obs profile and latency-histogram blocks of the largest
# sweep).
#
# Every size runs in a fresh `localias experiment` child process over a
# cold cache, so peak RSS is per sweep, not cumulative.
#
# Usage: scripts/bench_scale.sh [SEED] [--sizes N,N,...] [--jobs N]
#        (extra args are passed through to `localias scale`; the default
#        sizes are 1000,5000,20000,50000)
set -eu

cd "$(dirname "$0")/.."

cargo build --release -p localias-driver

./target/release/localias scale --bench-out BENCH_scale.json "$@"

echo
echo "wrote $(pwd)/BENCH_scale.json"
