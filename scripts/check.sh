#!/bin/sh
# CI gate: formatting + lints, tier-1 build + tests (workspace-wide, which
# includes the multi-process cache concurrency test), the paper's §7
# totals, Figure 6 total and Figure 7 match from a cold full sweep, the
# §8 precision counts, a warm-cache smoke sweep that proves
# the incremental cache fully hits on an unchanged corpus, a
# crash-recovery smoke that kills a sweep mid-run and fabricates the
# worst-case crash artifacts to prove the one-file store heals itself, a
# mega-module session test (closed-form edits through one
# `IncrementalSession`, each report equal to checking from scratch), a
# watch smoke pinning the per-mode counts `localias watch` prints
# before and after an edit, an
# artifact smoke that profiles a sweep and finds its profile and hist
# blocks in the one artifact it writes (plus a cold uncached profile
# whose table names every layer span), and a
# perf-regression gate proving `localias bench-diff` is clean on a
# self-compare, trips on an injected slowdown, and still compares the
# kept pre-`gate` experiment artifact with a fresh one. The
# benchmark workspace's tests run too, the solver's exactness tests,
# the lock checker's one-walk exactness tests (the sweep equals
# `check_modes`, whose reports equal per-mode checks) and its sparse
# walk's pinned dead-code reports and statement count, the front end's
# and the analysis's pinned output digests, the canonical cache key's
# properties and pinned values, the front end's debug dump and error
# precedence, the fingerprint kernel's known answers and the one-time
# quarantine of a version-3 store are gated by name, and the fuzz smoke
# pins its false-positive counts for the one alias configuration the
# pipeline runs (Steensgaard). The corpus pass's allocation count is
# gated against its ceiling phase by phase, and the CLI's one-parser
# contract is gated by name. The fuzz and scale subcommands write their artifacts once each,
# and a fuzz artifact diffs clean against itself.
set -eu

cd "$(dirname "$0")/.."

# gate CRATE TEST NAME: runs the one test NAME of CRATE's integration
# test TEST and fails unless it ran and passed. A name that matches no
# test would otherwise pass as "0 passed", so renaming or deleting a
# gated test would quietly turn its gate off.
gate() {
    GATED=$(cargo test -q -p "$1" --test "$2" -- --exact "$3" 2>&1) || {
        printf '%s\n' "$GATED" >&2
        echo "check.sh: gated test $2::$3 of $1 failed" >&2
        exit 1
    }
    printf '%s\n' "$GATED" | grep -qF 'test result: ok. 1 passed;' || {
        printf '%s\n' "$GATED" >&2
        echo "check.sh: gated test $2::$3 of $1 did not run" >&2
        exit 1
    }
}

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace

# The benchmark is its own Cargo workspace built against the crates'
# public API; nothing else builds it, so an API break would pass
# unnoticed without this step.
(cd benchmark && cargo test -q --offline)

# The concurrent-writer regression is the load-bearing test of the
# store: two real processes persisting into one cache dir must lose no
# entries. A store a newer binary wrote must be left alone: served from
# never, quarantined never, rewritten never. A store the version-3
# binary wrote (FNV-1a keys) must serve nothing and be quarantined once.
# Gate all three by name so a filtered test run can't skip them.
gate localias-bench cache concurrent_disjoint_sweeps_lose_no_entries
gate localias-bench cache newer_binarys_store_is_left_alone
gate localias-bench cache stale_v3_store_is_discarded_whole

# The fingerprint kernel behind both cache keys must be MurmurHash3
# x64_128 exactly: SMHasher's verification code, the reference digest of
# "hello", and streaming equal to one-shot at every split point.
gate localias-ast fingerprint_kernel smhasher_verification_code_matches
gate localias-ast fingerprint_kernel hello_matches_the_reference_digest
gate localias-ast fingerprint_kernel streaming_equals_one_shot_at_every_split

# The observability contract is likewise gated by name: counter totals
# and the span tree must not depend on the thread count, on the
# mega-module the headline counters must match their closed forms, and
# every duration a report carries (`PhaseTimes`, `IncrStats`,
# `CacheStats`) must equal the total of the span that timed it.
gate localias-bench obs trace_shape_is_thread_invariant
gate localias-bench obs mega_module_counters_match_closed_form
gate localias-bench obs reported_durations_are_span_totals

# The histogram determinism contract too: per-hist sample counts must
# not depend on the thread count, and equal sample multisets must render
# byte-identical hist blocks under any worker layout.
gate localias-bench hist sweep_hist_counts_are_thread_invariant
gate localias-bench hist equal_multisets_render_byte_identical_hist_blocks

# The solver's exactness contract is gated by name as well: with
# intersections and with conditional constraints of every guard shape,
# on random systems and on the first 60 corpus modules plus a mega
# module, `solve_with` must reach the naive reference's solution,
# location partition, flags and violations.
gate localias solver_props solution_is_least_with_intersections
gate localias solver_props conditional_fixpoint_matches_reference
gate localias solver_props corpus_systems_match_reference

# The lock checker's exactness contract is gated by name too: the sweep
# checks each module's three modes over one call graph through
# `check_modes`, so its error triples must equal `check_modes`, and the
# shared-graph reports must be byte-identical to three independent
# per-mode checks.
gate localias-bench experiment_pipeline sweep_matches_check_modes
gate localias-bench experiment_pipeline shared_analysis_reports_are_byte_identical
# The checker walks only the code that can change a lock state. Its
# reports on dead-code shapes (early exits in call-free branches and
# loops, calls hidden in loop conditions, `for` steps and extern
# arguments, scopes over call-free bodies) and on a hand-built confine
# range over call-free statements are pinned in all three modes, and a
# lock pair around a call-free loop nest walks the same statements at
# every nest depth.
gate localias-cqual sparse_walk dead_code_shapes_report_as_pinned
gate localias-cqual sparse_walk a_range_over_call_free_statements_still_copies
gate localias-cqual walk_cost call_free_loop_nests_walk_no_statements

# The front end's exactness contract is gated by name: every parse
# result (module dump with spans, or error) over the parser-totality
# inputs, the corpus, the mega module and the fuzz stream folds into one
# pinned digest. So is the canonical cache key's: it must ignore layout,
# comments and parentheses, move on every structural edit, survive
# print-then-parse, and never be shared by two modules that print
# differently.
gate localias frontend_digest front_end_output_is_pinned
# The analysis's exactness contract likewise: every candidate, outcome,
# function effect, solver round and fired count, frozen location table
# and lock report over three corpus seeds and three mega modules folds
# into one pinned digest, so pruning constraint variables or changing
# the solver's graph must leave every decision where it was. A second
# digest pins what the general confine strategy and restrict inference
# decide over the corpus.
gate localias analysis_digest analysis_output_is_pinned
gate localias analysis_digest inference_strategies_are_pinned
gate localias-bench canonical_key structural_key_tracks_structure_not_text
# Every canonical key of the corpus, three mega modules and the fuzz
# stream folds into one pinned value: a re-encoded walk that moved the
# key of any node kind would otherwise turn every warm hit into a miss.
gate localias-bench canonical_key canonical_keys_are_pinned
# The front end's contract on small inputs: the `{:?}` dump of a module
# with every node kind, and a lexical error winning over an earlier
# syntax error.
gate localias-ast front_end_contract module_debug_dump_is_pinned
gate localias-ast front_end_contract lex_error_wins_over_an_earlier_syntax_error
# Names and types are `Copy` ids into per-module tables: a 4-byte
# `Symbol`, an 8-byte `Ty`, and expression and statement nodes no larger
# than the ids made them, so a refcounted name cannot creep back into a
# node, a variable or a type.
gate localias-alias layout names_and_types_are_small_copy_ids
# The per-module pipeline's allocation budget is gated by name too: parse
# plus `check_modes` over the corpus must stay under its ceiling, and each
# phase (parse, base, the confine scan, the rest of confine inference,
# check) under its own, so an allocation that creeps back into the
# analysis path, or moves from one phase into another, fails here.
gate localias alloc_budget corpus_pass_stays_inside_its_allocation_budget

# The CLI contract is gated by name as well: every subcommand reads its
# arguments through one parser, so a flag given twice or given another
# flag as its value is rejected with the subcommand's usage line before
# anything runs, and no subcommand accepts a flag it does not use.
gate localias-driver cli repeated_flags_and_flags_as_values_are_rejected
gate localias-driver cli subcommands_reject_flags_they_do_not_use

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
    '  spurious errors: 3116 of 3277 eliminated (95%)' \
    'total eliminated: 3116 (paper: 3,116)' \
    '14/14 rows match the paper exactly'; do
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
# Whatever it leaves behind (a temp file, a held lock), the next sweep
# must load cleanly and exit 0.
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

# Part 2: fabricate the worst-case crash deterministically — the store
# truncated mid-entry, an orphaned temp file and a stale lock left by a
# dead process — and prove the next sweep quarantines the broken store,
# sweeps the orphan, breaks the lock, and heals the store.
CRASH="$CACHE/crash"
./target/release/localias experiment --jobs 1 --cache "$CRASH" >/dev/null
STORE="$CRASH/store.jsonl"
SIZE=$(wc -c <"$STORE")
head -c $((SIZE - 5)) "$STORE" >"$STORE.cut"
mv "$STORE.cut" "$STORE"
: >"$STORE.tmp.999999999"
echo 999999999 >"${STORE%.jsonl}.lock"

RECOVER="$CRASH/recover.json"
./target/release/localias experiment --jobs 1 --cache "$CRASH" \
    --bench-out "$RECOVER" >/dev/null
grep -q '"quarantined": 1' "$RECOVER" || {
    echo "check.sh: recovery sweep did not quarantine the store:" >&2
    cat "$RECOVER" >&2
    exit 1
}
BAD=$(ls "$CRASH"/*.bad 2>/dev/null | wc -l)
[ "$BAD" -eq 1 ] || {
    echo "check.sh: expected exactly one quarantined *.bad file, found $BAD" >&2
    ls "$CRASH" >&2
    exit 1
}
[ ! -e "$STORE.tmp.999999999" ] || {
    echo "check.sh: orphaned temp file from a dead pid was not swept" >&2
    exit 1
}

# The recovery sweep re-analyzed every module and persisted the store
# back: one more pass must fully hit again.
HEALED="$CRASH/healed.json"
./target/release/localias experiment --jobs 1 --cache "$CRASH" \
    --bench-out "$HEALED" >/dev/null
grep -q '"hits": 589' "$HEALED" && grep -q '"misses": 0' "$HEALED" || {
    echo "check.sh: store did not heal after crash recovery:" >&2
    cat "$HEALED" >&2
    exit 1
}

# Mega-module session test, gated by name: one session over a
# 120-function mega module takes closed-form edits, a whitespace edit
# and a byte-identical repeat; every error triple must equal its closed
# form, every report checking from scratch, and the repeat must be a
# module hit.
gate localias-bench intra mega_edits_through_a_session_match_their_closed_forms

# Watch smoke: `localias watch` must pick up an edit and print the
# per-mode error counts of both versions (the edit drops the unlock).
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
    --quiet >"$WOUT" || {
    echo "check.sh: watch failed:" >&2
    cat "$WOUT" >&2
    exit 1
}
wait "$EDITOR_PID"
for LINE in \
    '[1] NoConfine 1, Confine 0, AllStrong 0 — ' \
    '[2] NoConfine 0, Confine 0, AllStrong 0 — '; do
    grep -qF "$LINE" "$WOUT" || {
        echo "check.sh: watch did not print '$LINE':" >&2
        cat "$WOUT" >&2
        exit 1
    }
done

# Artifact smoke: a profiled sweep on worker threads writes one
# artifact that embeds the profile and hist blocks, and prints the
# profile table on stderr.
PROFILED="$CACHE/profiled.json"
PROFTAB="$CACHE/profile.txt"
./target/release/localias experiment --jobs 2 --cache "$CACHE" --profile \
    --bench-out "$PROFILED" >/dev/null 2>"$PROFTAB"
grep -q '"profile": {' "$PROFILED" || {
    echo "check.sh: profiled sweep did not embed a profile block:" >&2
    cat "$PROFILED" >&2
    exit 1
}
grep -q '"hist": {' "$PROFILED" || {
    echo "check.sh: profiled sweep did not embed a hist block:" >&2
    cat "$PROFILED" >&2
    exit 1
}
grep -q 'bench.sweep' "$PROFTAB" || {
    echo "check.sh: --profile table missing the sweep span:" >&2
    cat "$PROFTAB" >&2
    exit 1
}
# That sweep ran on a warm store and parsed nothing; a cold uncached one
# must show every layer the sweep runs in its table.
COLDTAB="$CACHE/profile-cold.txt"
./target/release/localias experiment --jobs 1 --no-cache --profile \
    >/dev/null 2>"$COLDTAB"
for SPAN in ast.parse core.base core.confine core.propose core.freeze \
    cqual.check bench.drop; do
    grep -q "^bench.sweep/.*$SPAN " "$COLDTAB" || {
        echo "check.sh: cold --profile table missing the $SPAN span:" >&2
        cat "$COLDTAB" >&2
        exit 1
    }
done

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

# Compatibility: the kept v6 experiment artifact predates the `gate`
# block, yet still compares with a fresh one on the paths both hold.
# The threshold is loose because the two runs share no host or cache
# state; the step checks that the metrics line up, not their values.
COMPAT="$CACHE/compat.json"
./target/release/localias bench-diff BENCH_experiment_v6.json "$PROFILED" \
    --threshold 100000 --json "$COMPAT" >/dev/null || {
    echo "check.sh: bench-diff of the committed artifact against a fresh one failed" >&2
    exit 1
}
grep -q '"name": "modules_per_second"' "$COMPAT" || {
    echo "check.sh: bench-diff did not compare modules_per_second across schema versions:" >&2
    cat "$COMPAT" >&2
    exit 1
}

# Differential-fuzzing smoke: a seeded 1000-module sweep with the
# interpreter as ground-truth oracle must find zero soundness
# divergences across all three modes — the repro dir staying empty is
# the machine-checkable "all clean" signal — and must keep the pinned
# false-positive counts.
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
grep -qxF "  steensgaard  $FP_COUNTS" "$FUZZOUT" || {
    echo "check.sh: fuzz smoke changed the steensgaard false-positive counts:" >&2
    cat "$FUZZOUT" >&2
    exit 1
}
if [ -n "$(ls -A "$FUZZ")" ]; then
    echo "check.sh: fuzz smoke exited 0 but wrote repro modules:" >&2
    ls "$FUZZ" >&2
    exit 1
fi

# Fuzz artifact smoke: `localias fuzz --bench-out` writes the
# localias-bench-fuzz/v4 artifact, and the artifact diffs clean against
# itself.
FUZZART="$CACHE/fuzz.json"
./target/release/localias fuzz --iterations 100 --seed 42 \
    --bench-out "$FUZZART" >/dev/null
grep -q '"schema": "localias-bench-fuzz/v4"' "$FUZZART" || {
    echo "check.sh: fuzz --bench-out did not write a localias-bench-fuzz/v4 artifact:" >&2
    cat "$FUZZART" >&2
    exit 1
}
./target/release/localias bench-diff "$FUZZART" "$FUZZART" >/dev/null || {
    echo "check.sh: bench-diff of the fuzz artifact against itself failed" >&2
    exit 1
}

# §8 precision study: the five counts at the default seed.
PRECOUT="$CACHE/precision.txt"
./target/release/localias precision >"$PRECOUT"
for ROW in \
    'pointer-local pairs compared +6308' \
    'aliased under unification \(Steensgaard\) +1320' \
    'aliased under inclusion \(Andersen\) +1054' \
    'pairs only unification conflates +266' \
    'modules where precision differs +117'; do
    grep -qE "^$ROW\$" "$PRECOUT" || {
        echo "check.sh: localias precision changed its counts:" >&2
        cat "$PRECOUT" >&2
        exit 1
    }
done

# Scale smoke: one small size through `localias scale`, whose point
# spawns a `localias experiment` child.
SCALEART="$CACHE/scale.json"
./target/release/localias scale --sizes 300 --bench-out "$SCALEART" >/dev/null
grep -q '"300": {' "$SCALEART" || {
    echo "check.sh: localias scale did not write a 300-module point:" >&2
    cat "$SCALEART" >&2
    exit 1
}

echo "check.sh: fmt, clippy, build, tests, concurrency + newer-store + v3-store + fingerprint-kernel + obs + hist + solver-exactness + checker-exactness + front-end digest + analysis digest + canonical-key + CLI-contract gates, §7 totals + Figures 6 and 7, warm-cache sweep, crash recovery, mega session test, watch smoke, artifact smoke, bench-diff gate, benchmark tests, fuzz smoke, fuzz artifact, precision counts, and scale smoke all passed"
