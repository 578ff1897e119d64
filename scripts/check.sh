#!/bin/sh
# CI gate: formatting + lints, tier-1 build + tests (workspace-wide, which
# includes the multi-process cache concurrency test), the paper's §7
# totals from a cold full sweep, a warm-cache smoke sweep that proves
# the incremental cache fully hits on an unchanged corpus, a
# crash-recovery smoke that kills a sweep mid-run and fabricates the
# worst-case crash artifacts to prove the sharded store heals itself, a
# mega-module smoke of the `watch` bench (incremental recheck asserted
# equal to from-scratch checking on every edit), a watch-determinism
# smoke proving `localias watch` reports stay byte-identical to a full
# recheck, an
# observability smoke that traces a sweep, validates the emitted trace
# with `localias tracecheck`, and exports it as a Chrome trace, and a
# perf-regression gate proving `localias bench-diff` is clean on a
# self-compare, trips on an injected slowdown, and still compares the
# committed pre-`gate` experiment artifact with a fresh one. The
# benchmark workspace's tests run too, and the fuzz smoke pins its
# false-positive counts.
set -eu

cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace

# The benchmark is its own Cargo workspace built against the crates'
# public API; nothing else builds it, so an API break would pass
# unnoticed without this step.
(cd benchmark && cargo test -q --offline)

# The concurrent-writer regression is the load-bearing test of the
# sharded store: two real processes persisting into one cache dir must
# lose no entries. Gate it by name so a filtered test run can't skip it.
cargo test -q -p localias-bench --test cache \
    concurrent_disjoint_sweeps_lose_no_entries >/dev/null

# The observability contract is likewise gated by name: counter totals
# and the span tree must not depend on the thread count, and on the
# mega-module the headline counters must match their closed forms.
cargo test -q -p localias-bench --test obs \
    trace_shape_is_thread_invariant >/dev/null
cargo test -q -p localias-bench --test obs \
    mega_module_counters_match_closed_form >/dev/null

# The histogram determinism contract too: per-hist sample counts must
# not depend on the thread count, and equal sample multisets must render
# byte-identical hist blocks under any worker layout.
cargo test -q -p localias-bench --test hist \
    sweep_hist_counts_are_thread_invariant >/dev/null
cargo test -q -p localias-bench --test hist \
    equal_multisets_render_byte_identical_hist_blocks >/dev/null

# Cold pass primes a throwaway cache and must report the paper's §7
# totals over the whole corpus; warm pass must hit on all 589 modules
# and miss on none.
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT
COLD="$CACHE/cold.txt"
WARM="$CACHE/warm.json"

./target/release/localias experiment --jobs 1 --cache "$CACHE" >"$COLD"
for LINE in \
    '  error-free without confine:        352' \
    '  errors unrelated to weak updates:  85' \
    '  fully recovered by confine:        138' \
    '  partially recovered (Figure 7):    14' \
    '  spurious errors: 3116 of 3277 eliminated (95%)'; do
    grep -qxF "$LINE" "$COLD" || {
        echo "check.sh: the cold sweep no longer reports the paper's numbers:" >&2
        cat "$COLD" >&2
        exit 1
    }
done
./target/release/localias experiment --jobs 1 --cache "$CACHE" \
    --bench-out "$WARM" >/dev/null

grep -q '"hits": 589' "$WARM" || {
    echo "check.sh: warm sweep did not hit on all 589 modules:" >&2
    cat "$WARM" >&2
    exit 1
}
grep -q '"misses": 0' "$WARM" || {
    echo "check.sh: warm sweep reported misses:" >&2
    cat "$WARM" >&2
    exit 1
}

# Crash-recovery smoke, part 1: kill a sweep outright partway through.
# Whatever it leaves behind (partial shards, temp files, a held lock),
# the next sweep must load cleanly and exit 0.
KILLED="$CACHE/killed"
./target/release/localias experiment --jobs 1 --cache "$KILLED" >/dev/null &
SWEEP=$!
sleep 0.3
kill -9 "$SWEEP" 2>/dev/null || true
wait "$SWEEP" 2>/dev/null || true
./target/release/localias experiment --jobs 1 --cache "$KILLED" >/dev/null || {
    echo "check.sh: sweep after a kill -9 crash did not recover" >&2
    exit 1
}

# Part 2: fabricate the worst-case crash deterministically — one shard
# truncated mid-entry, an orphaned temp file and a stale lock left by a
# dead process — and prove the next sweep quarantines exactly the broken
# shard, sweeps the orphan, breaks the lock, and heals the store.
CRASH="$CACHE/crash"
./target/release/localias experiment --jobs 1 --cache "$CRASH" >/dev/null
SHARD=$(ls "$CRASH"/shard-*.jsonl | head -n 1)
SIZE=$(wc -c <"$SHARD")
head -c $((SIZE - 5)) "$SHARD" >"$SHARD.cut"
mv "$SHARD.cut" "$SHARD"
: >"$SHARD.tmp.999999999"
echo 999999999 >"${SHARD%.jsonl}.lock"

RECOVER="$CRASH/recover.json"
./target/release/localias experiment --jobs 1 --cache "$CRASH" \
    --bench-out "$RECOVER" >/dev/null
grep -q '"quarantined": 1' "$RECOVER" || {
    echo "check.sh: recovery sweep did not quarantine exactly one shard:" >&2
    cat "$RECOVER" >&2
    exit 1
}
BAD=$(ls "$CRASH"/*.bad 2>/dev/null | wc -l)
[ "$BAD" -eq 1 ] || {
    echo "check.sh: expected exactly one quarantined *.bad file, found $BAD" >&2
    ls "$CRASH" >&2
    exit 1
}
[ ! -e "$SHARD.tmp.999999999" ] || {
    echo "check.sh: orphaned temp file from a dead pid was not swept" >&2
    exit 1
}

# The recovery sweep re-analyzed the lost shard and persisted it back:
# one more pass must fully hit again.
HEALED="$CRASH/healed.json"
./target/release/localias experiment --jobs 1 --cache "$CRASH" \
    --bench-out "$HEALED" >/dev/null
grep -q '"hits": 589' "$HEALED" && grep -q '"misses": 0' "$HEALED" || {
    echo "check.sh: store did not heal after crash recovery:" >&2
    cat "$HEALED" >&2
    exit 1
}

# Mega-module smoke: on every iteration the `watch` bench asserts that
# the incremental reports equal from-scratch checking and that each
# edit's closed-form error triple holds.
WATCH="$CACHE/watch.json"
cargo run -q --release -p localias-bench --bin watch -- \
    --funs 120 --edits 4 --bench-out "$WATCH" >/dev/null
grep -q '"schema": "localias-bench-watch/v4"' "$WATCH" || {
    echo "check.sh: watch bench wrote an unexpected report:" >&2
    cat "$WATCH" >&2
    exit 1
}

# A self-diff of the watch artifact compares every metric its gate
# lists and must be clean.
./target/release/localias bench-diff "$WATCH" "$WATCH" >/dev/null || {
    echo "check.sh: bench-diff self-compare of the watch artifact was not clean" >&2
    ./target/release/localias bench-diff "$WATCH" "$WATCH" >&2 || true
    exit 1
}

# Watch-determinism smoke: after an edit, the incremental report must
# be byte-identical to a full recheck (`--verify` re-checks from scratch
# and fails the process on any divergence, every iteration).
WATCHDIR="$CACHE/watch"
mkdir -p "$WATCHDIR"
WFILE="$WATCHDIR/mod.mc"
printf '%s\n' \
    'lock locks[8];' \
    'extern void work();' \
    'void helper(int i) {' \
    '    spin_lock(&locks[i]);' \
    '    work();' \
    '    spin_unlock(&locks[i]);' \
    '}' \
    'void caller(int i) { helper(i); }' >"$WFILE"
(
    sleep 0.5
    printf '%s\n' \
        'lock locks[8];' \
        'extern void work();' \
        'void helper(int i) {' \
        '    spin_lock(&locks[i]);' \
        '    work();' \
        '}' \
        'void caller(int i) { helper(i); }' >"$WFILE"
) &
EDITOR_PID=$!
WOUT="$WATCHDIR/out.txt"
./target/release/localias watch "$WFILE" --iterations 2 --poll-ms 25 \
    --verify --quiet >"$WOUT" || {
    echo "check.sh: watch --verify diverged from a full recheck:" >&2
    cat "$WOUT" >&2
    exit 1
}
wait "$EDITOR_PID"
grep -q '^\[2\] incr:' "$WOUT" || {
    echo "check.sh: watch did not pick up the edit:" >&2
    cat "$WOUT" >&2
    exit 1
}

# Observability smoke: a traced sweep must emit a trace the strict
# validator accepts, embed profile + hist blocks in the bench report,
# print the profile table on stderr, and export a Chrome trace both
# directly (--trace-chrome) and from the trace file (tracecheck
# --chrome).
TRACE="$CACHE/trace.jsonl"
PROFILED="$CACHE/profiled.json"
PROFTAB="$CACHE/profile.txt"
CHROME="$CACHE/chrome.json"
./target/release/localias experiment --jobs 2 --cache "$CACHE" \
    --trace-out "$TRACE" --trace-chrome "$CHROME" --profile \
    --bench-out "$PROFILED" >/dev/null 2>"$PROFTAB"
./target/release/localias tracecheck "$TRACE" >/dev/null || {
    echo "check.sh: emitted trace failed validation" >&2
    cat "$TRACE" >&2
    exit 1
}
grep -q '"schema":"localias-trace/v2"' "$TRACE" || {
    echo "check.sh: trace header missing or wrong schema" >&2
    head -n 1 "$TRACE" >&2
    exit 1
}
grep -q '"profile": {' "$PROFILED" || {
    echo "check.sh: traced sweep did not embed a profile block:" >&2
    cat "$PROFILED" >&2
    exit 1
}
grep -q '"hist": {' "$PROFILED" || {
    echo "check.sh: traced sweep did not embed a hist block:" >&2
    cat "$PROFILED" >&2
    exit 1
}
grep -q 'bench.sweep' "$PROFTAB" || {
    echo "check.sh: --profile table missing the sweep span:" >&2
    cat "$PROFTAB" >&2
    exit 1
}
grep -q '"traceEvents"' "$CHROME" || {
    echo "check.sh: --trace-chrome did not write a Chrome trace:" >&2
    head -c 400 "$CHROME" >&2
    exit 1
}
CHROME2="$CACHE/chrome-from-trace.json"
./target/release/localias tracecheck "$TRACE" --chrome "$CHROME2" >/dev/null || {
    echo "check.sh: tracecheck --chrome failed on a valid trace" >&2
    exit 1
}
grep -q '"traceEvents"' "$CHROME2" || {
    echo "check.sh: tracecheck --chrome did not write a Chrome trace:" >&2
    head -c 400 "$CHROME2" >&2
    exit 1
}

# Perf-regression gate: bench-diff of the profiled artifact against
# itself must be clean (exit 0); against a copy with a 10x wall-time
# slowdown injected it must exit non-zero and name the regression.
./target/release/localias bench-diff "$PROFILED" "$PROFILED" >/dev/null || {
    echo "check.sh: bench-diff self-compare reported regressions" >&2
    ./target/release/localias bench-diff "$PROFILED" "$PROFILED" >&2 || true
    exit 1
}
REGRESSED="$CACHE/regressed.json"
sed 's/"wall_seconds": /"wall_seconds": 9/' "$PROFILED" >"$REGRESSED"
DIFFOUT="$CACHE/diff.txt"
if ./target/release/localias bench-diff "$PROFILED" "$REGRESSED" \
    >"$DIFFOUT" 2>&1; then
    echo "check.sh: bench-diff exited 0 on an injected 10x wall-time regression:" >&2
    cat "$DIFFOUT" >&2
    exit 1
fi
grep -q 'REGRESSED' "$DIFFOUT" || {
    echo "check.sh: bench-diff failed without flagging the injected regression:" >&2
    cat "$DIFFOUT" >&2
    exit 1
}

# Compatibility: the committed experiment artifact predates the `gate`
# block, yet still compares with a fresh one on the paths both hold.
# The threshold is loose because the two runs share no host or cache
# state; the step checks that the metrics line up, not their values.
COMPAT="$CACHE/compat.json"
./target/release/localias bench-diff BENCH_experiment.json "$PROFILED" \
    --threshold 100000 --json "$COMPAT" >/dev/null || {
    echo "check.sh: bench-diff of the committed artifact against a fresh one failed" >&2
    exit 1
}
grep -q '"name": "modules_per_second"' "$COMPAT" || {
    echo "check.sh: bench-diff did not compare modules_per_second across schema versions:" >&2
    cat "$COMPAT" >&2
    exit 1
}

# Scale smoke: a 2,000-module streamed corpus swept as two concurrent
# partition processes over a shared cache must bench-merge into one
# artifact covering the whole corpus, and the traced partition's trace
# must pass the strict validator.
SCALE="$CACHE/scale"
mkdir -p "$SCALE"
./target/release/localias experiment 7 --modules 2000 --partition 0/2 \
    --cache "$SCALE/cache" --bench-out "$SCALE/p0.json" \
    --trace-out "$SCALE/p0-trace.jsonl" --quiet >/dev/null &
PART0=$!
./target/release/localias experiment 7 --modules 2000 --partition 1/2 \
    --cache "$SCALE/cache" --bench-out "$SCALE/p1.json" --quiet >/dev/null
wait "$PART0" || {
    echo "check.sh: partition 0/2 of the scale smoke failed" >&2
    exit 1
}
./target/release/localias bench-merge "$SCALE/p0.json" "$SCALE/p1.json" \
    --out "$SCALE/merged.json" >/dev/null
grep -q '"modules": 2000' "$SCALE/merged.json" || {
    echo "check.sh: merged scale artifact does not cover all 2000 modules:" >&2
    cat "$SCALE/merged.json" >&2
    exit 1
}
grep -q '"partition": null' "$SCALE/merged.json" || {
    echo "check.sh: merged scale artifact still claims to be a partition" >&2
    exit 1
}
./target/release/localias tracecheck "$SCALE/p0-trace.jsonl" >/dev/null || {
    echo "check.sh: partitioned sweep emitted an invalid trace" >&2
    cat "$SCALE/p0-trace.jsonl" >&2
    exit 1
}

# Alias-backend smoke: the Andersen backend must run the full three-mode
# sweep end-to-end, emit a valid trace, and key its own cache domain —
# a cache warmed by the default (Steensgaard) sweep serves it zero hits.
ALIAS="$CACHE/alias"
mkdir -p "$ALIAS"
./target/release/localias experiment 7 --modules 80 \
    --cache "$ALIAS/cache" --quiet >/dev/null
./target/release/localias experiment 7 --modules 80 --alias andersen \
    --cache "$ALIAS/cache" --bench-out "$ALIAS/andersen.json" \
    --trace-out "$ALIAS/andersen-trace.jsonl" --quiet >/dev/null
grep -q '"misses": 80' "$ALIAS/andersen.json" || {
    echo "check.sh: andersen sweep hit the steensgaard cache domain:" >&2
    cat "$ALIAS/andersen.json" >&2
    exit 1
}
./target/release/localias tracecheck "$ALIAS/andersen-trace.jsonl" >/dev/null || {
    echo "check.sh: andersen sweep emitted an invalid trace" >&2
    cat "$ALIAS/andersen-trace.jsonl" >&2
    exit 1
}

# Differential-fuzzing smoke: a seeded 1000-module sweep with the
# interpreter as ground-truth oracle must find zero soundness
# divergences across all three modes x both alias backends — the repro
# dir staying empty is the machine-checkable "all clean" signal — and
# must keep the pinned false-positive counts of both backends.
FUZZ="$CACHE/fuzz-repro"
FUZZOUT="$CACHE/fuzz.txt"
mkdir -p "$FUZZ"
./target/release/localias fuzz --iterations 1000 --seed 42 \
    --repro-dir "$FUZZ" >"$FUZZOUT" || {
    echo "check.sh: fuzz smoke found soundness divergences; repros:" >&2
    ls "$FUZZ" >&2
    exit 1
}
FP_COUNTS='noconfine=55.6% (726/1305) confine=27.4% (218/797) allstrong=10.5% (68/647)'
for BACKEND in steensgaard andersen; do
    grep -qxF "  $(printf '%-12s' "$BACKEND") $FP_COUNTS" "$FUZZOUT" || {
        echo "check.sh: fuzz smoke changed the $BACKEND false-positive counts:" >&2
        cat "$FUZZOUT" >&2
        exit 1
    }
done
if [ -n "$(ls -A "$FUZZ")" ]; then
    echo "check.sh: fuzz smoke exited 0 but wrote repro modules:" >&2
    ls "$FUZZ" >&2
    exit 1
fi

echo "check.sh: fmt, clippy, build, tests, concurrency + obs + hist gates, §7 totals, warm-cache sweep, crash recovery, mega smoke, watch-determinism smoke, trace + chrome smoke, bench-diff gate, partitioned scale smoke, andersen backend smoke, benchmark tests, and fuzz smoke all passed"
