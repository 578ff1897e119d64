#!/bin/sh
# Samples a cold 600,000-module sweep on one worker with gprofng's clock
# profiler and prints the 40 functions with the largest inclusive CPU
# time.
#
#   scripts/profile.sh
#
# gprofng is the sampling profiler that ships with GNU binutils; on a
# host where it samples at about 10 Hz the sweep (~100 s) yields about
# 1,000 samples. The experiment directory is removed afterwards.
set -eu

cd "$(dirname "$0")/.."

command -v gprofng >/dev/null 2>&1 || {
    echo "profile.sh: gprofng not found; it ships with GNU binutils (2.39 or later)" >&2
    exit 1
}

cargo build --release --workspace --quiet
EXP=$(mktemp -d)
trap 'rm -rf "$EXP"' EXIT
gprofng collect app -p hi -o "$EXP/sweep.er" \
    ./target/release/localias experiment --modules 600000 --jobs 1 --no-cache \
    >"$EXP/sweep.txt"
gprofng display text -limit 40 -metrics i.totalcpu:e.totalcpu \
    -sort i.totalcpu -functions "$EXP/sweep.er"
