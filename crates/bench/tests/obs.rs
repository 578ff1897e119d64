//! Determinism and closed-form tests for the observability layer.
//!
//! The obs contract is that traces describe the *work*, not the
//! *schedule*: counter totals and the span tree (paths and counts) must
//! be byte-identical whatever `--jobs` the pipeline ran under, and on
//! the synthesized mega-module the headline counters have exact closed
//! forms pinned here.
//!
//! Every test holds [`obs::test_lock`] across enable → work → drain —
//! the counters are process-global, so concurrently running tests that
//! enable collection would observe each other.

use localias_bench::fuzz::{run_fuzz, FuzzConfig};
use localias_bench::{measure_corpus_cached, AnalysisCache, ModuleResult};
use localias_core::SharedAnalysis;
use localias_corpus::{generate, mega_module, GeneratedModule, DEFAULT_SEED};
use localias_cqual::check_modes;
use localias_obs as obs;

/// Corpus prefix the determinism sweep runs; enough modules for the
/// work-stealing loop to interleave on while staying fast in debug.
const PREFIX: usize = 40;

/// Sweeps `slice` on `jobs` worker threads with collection on and
/// returns the drained trace. Caller holds the test lock.
fn traced_sweep(slice: &[localias_corpus::GeneratedModule], jobs: usize) -> obs::Trace {
    obs::enable_all();
    let _ = obs::drain();
    let _ = measure_corpus_cached(slice, jobs, DEFAULT_SEED, None);
    let trace = obs::drain();
    obs::disable_metrics();
    obs::disable_spans();
    trace
}

/// The sweep's measurement of one module, uncached and single-threaded.
fn measure(m: &GeneratedModule) -> ModuleResult {
    let (mut results, _) = measure_corpus_cached(std::slice::from_ref(m), 1, DEFAULT_SEED, None);
    results.remove(0)
}

/// The pinned acceptance criterion: counter totals and the normalized
/// span tree are identical for every `jobs` value.
#[test]
fn trace_shape_is_thread_invariant() {
    let corpus = generate(DEFAULT_SEED);
    let slice = &corpus[..PREFIX.min(corpus.len())];

    let _l = obs::test_lock();
    let base = traced_sweep(slice, 1);
    assert!(!base.is_empty(), "instrumented sweep recorded nothing");
    assert!(
        base.spans.iter().any(|s| s.path == "bench.sweep"),
        "sweep span missing: {:?}",
        base.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    // The sweep drives the full pipeline, so every stage's headline
    // counter must have left tracks.
    for c in [
        obs::Counter::ModulesAnalyzed,
        obs::Counter::AliasUnifications,
        obs::Counter::DeliverOps,
        obs::Counter::SolveRounds,
        obs::Counter::CqualFunctionsChecked,
        obs::Counter::CqualLockSites,
    ] {
        assert!(base.counter(c) > 0, "{} stayed zero", obs::counter_name(c));
    }
    for jobs in [2, 8] {
        let t = traced_sweep(slice, jobs);
        assert_eq!(
            t.normalized(),
            base.normalized(),
            "trace shape depends on schedule at jobs={jobs}"
        );
    }
}

/// The mega-module's construction makes the headline counters exact:
/// every function is checked once per mode, every array/scalar leaf
/// contributes one lock + one unlock site per mode, and only the array
/// leaves error (under no-confine only).
#[test]
fn mega_module_counters_match_closed_form() {
    const FUNS: usize = 90;
    // 90 funs → 9 tops, 27 mids, 54 leaves; leaf kinds cycle
    // array/scalar/compute → 18 of each.
    const N_ARRAY: u64 = 18;
    const N_SCALAR: u64 = 18;
    let m = mega_module(20030609, FUNS);

    let _l = obs::test_lock();
    obs::enable_all();
    let _ = obs::drain();
    let r = measure(&m);
    let trace = obs::drain();
    obs::disable_metrics();
    obs::disable_spans();

    assert_eq!(
        (r.no_confine, r.confine, r.all_strong),
        (N_ARRAY as usize, 0, 0),
        "mega-module error triple"
    );
    // One module, two analysis pipelines (no-confine/all-strong share the
    // base analysis; confine runs its own).
    assert_eq!(trace.counter(obs::Counter::ModulesAnalyzed), 2);
    // Three mode checks, each over every function exactly once.
    assert_eq!(
        trace.counter(obs::Counter::CqualFunctionsChecked),
        3 * FUNS as u64
    );
    // Each array/scalar leaf has exactly one spin_lock + one spin_unlock.
    assert_eq!(
        trace.counter(obs::Counter::CqualLockSites),
        3 * 2 * (N_ARRAY + N_SCALAR)
    );
    // Only the array leaves error, and only under no-confine.
    assert_eq!(trace.counter(obs::Counter::CqualErrors), N_ARRAY);
    // The three mode checks walk one call graph: the module's sweep
    // builds it exactly once.
    let graphs: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.path.ends_with("cqual.graph"))
        .map(|s| (s.path.as_str(), s.count))
        .collect();
    assert_eq!(
        graphs,
        [("bench.sweep/cqual.check/cqual.graph", 1)],
        "one call graph per module"
    );
    // The rest of the pipeline left tracks too. (No CHECK-SAT counters
    // here: the mega-module carries no restrict annotations, so the
    // corpus sweep test covers those.)
    for c in [
        obs::Counter::AliasFreshLocs,
        obs::Counter::AliasFindOps,
        obs::Counter::EffectVars,
        obs::Counter::ConstraintEdges,
    ] {
        assert!(trace.counter(c) > 0, "{} stayed zero", obs::counter_name(c));
    }
}

/// The targeted CHECK-SAT search tallies its traversal in thread-local
/// accumulators and flushes once per query — the per-query counters must
/// reflect the search even when the answer is found early.
#[test]
fn checksat_queries_count_nodes_and_edges() {
    use localias_effects::{build, reaches, ConstraintSystem, Effect, EffectKind, KindMask};

    let mut cs = ConstraintSystem::new();
    let mut locs = localias_alias::LocTable::new();
    let l = locs.fresh(localias_alias::Ty::Int);
    let vars: Vec<_> = (0..8).map(|_| cs.fresh_var()).collect();
    cs.include(Effect::atom(EffectKind::Read, l), vars[0]);
    for w in vars.windows(2) {
        cs.include(Effect::var(w[0]), w[1]);
    }
    let graph = build(&mut cs);

    let _l = obs::test_lock();
    obs::enable_all();
    let _ = obs::drain();
    let hit = reaches(&graph, &cs, &mut locs, l, KindMask::ACCESS, vars[7]);
    let miss = reaches(&graph, &cs, &mut locs, l, KindMask::WRITE, vars[7]);
    let trace = obs::drain();
    obs::disable_metrics();
    obs::disable_spans();

    assert!(hit, "the read atom reaches the chain's end");
    assert!(!miss, "the chain carries no write atom");
    assert_eq!(trace.counter(obs::Counter::CheckSatQueries), 2);
    assert!(trace.counter(obs::Counter::CheckSatNodes) > 0);
    assert!(trace.counter(obs::Counter::CheckSatEdges) > 0);
}

/// The same work traced twice yields identical counter totals — the
/// counters are functions of the input, not of wall time or allocation.
#[test]
fn repeated_runs_count_identically() {
    let m = mega_module(7, 30);
    let _l = obs::test_lock();
    let mut shapes = Vec::new();
    for _ in 0..2 {
        obs::enable_all();
        let _ = obs::drain();
        let _ = measure(&m);
        let t = obs::drain();
        obs::disable_metrics();
        obs::disable_spans();
        shapes.push(t.normalized());
    }
    assert_eq!(shapes[0], shapes[1]);
}

/// Analyses each entry point runs per module: two for a three-mode check,
/// for a sweep miss and for a fuzz module (no-confine and all-strong
/// share the base analysis, which also answers the fuzzer's Theorem-1
/// gate).
#[test]
fn analyses_per_module_are_pinned() {
    let m = mega_module(7, 30);
    let parsed = m.parse();
    let analyses = |work: &dyn Fn()| {
        obs::enable_all();
        let _ = obs::drain();
        work();
        let trace = obs::drain();
        obs::disable_metrics();
        obs::disable_spans();
        trace.counter(obs::Counter::ModulesAnalyzed)
    };
    let dir = std::env::temp_dir().join(format!("localias-obs-miss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let miss = || {
        let mut cache = AnalysisCache::load(&dir);
        let slice = std::slice::from_ref(&m);
        let (_, bench) = measure_corpus_cached(slice, 1, 7, Some(&mut cache));
        assert_eq!(bench.cache.map(|c| c.misses), Some(1));
    };
    let fuzz = FuzzConfig {
        iterations: 1,
        shrink: false,
        ..FuzzConfig::default()
    };

    let _l = obs::test_lock();
    let modes = analyses(&|| drop(check_modes(&mut SharedAnalysis::new(&parsed))));
    assert_eq!(modes, 2, "check_modes");
    assert_eq!(analyses(&miss), 2, "sweep miss");
    assert_eq!(analyses(&|| drop(run_fuzz(&fuzz))), 2, "fuzz module");
}
