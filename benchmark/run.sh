#!/usr/bin/env bash
# The localias benchmark's one command. Builds the benchmark from source,
# then runs it with the given arguments:
#
#   benchmark/run.sh [SEED]                 every workload, untraced and
#                                           traced; writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                           one run; last stdout line is JSON
#   benchmark/run.sh agree A.json B.json    compare two results files
#
# Builds into $CARGO_TARGET_DIR when it is set, else benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/localias-benchmark" "$@"
