//! Regression tests for the shared-front-end experiment pipeline: the
//! analysis-reuse path must report exactly what three independent runs of
//! `check_locks` report, and the parallel runner must be deterministic.

use localias_bench::{measure_corpus_cached, ModuleResult};
use localias_core::SharedAnalysis;
use localias_corpus::{generate, GeneratedModule, DEFAULT_SEED};
use localias_cqual::{check_locks, check_modes, LockReport, MODES};

/// How many corpus modules the equivalence test walks. Enough to cover
/// every generator archetype (clean, spurious-weak, real-bug, confine,
/// and the Figure 6/7 replicas all appear well inside this prefix).
const PREFIX: usize = 25;

/// An uncached sweep of `slice` on `jobs` worker threads.
fn sweep(slice: &[GeneratedModule], jobs: usize) -> Vec<ModuleResult> {
    measure_corpus_cached(slice, jobs, DEFAULT_SEED, None).0
}

/// The sweep's phase-timed path must count exactly the errors of
/// [`check_modes`], module for module.
#[test]
fn sweep_matches_check_modes() {
    let corpus = generate(DEFAULT_SEED);
    assert!(corpus.len() >= PREFIX);

    for (m, r) in corpus[..PREFIX].iter().zip(sweep(&corpus[..PREFIX], 1)) {
        let parsed = m.parse();
        let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&parsed))
            .0
            .map(|r| r.error_count());
        assert_eq!(
            (r.no_confine, r.confine, r.all_strong),
            (nc, cf, st),
            "module {}: the sweep disagrees with check_modes",
            m.name
        );
    }
}

/// The shared-analysis path must be observationally identical to three
/// independent `check_locks` pipelines — not just the same error
/// *counts*, but byte-identical rendered reports, error for error.
#[test]
fn shared_analysis_reports_are_byte_identical() {
    let corpus = generate(DEFAULT_SEED);
    for m in &corpus[..PREFIX] {
        let parsed = m.parse();
        let shared = check_modes(&mut SharedAnalysis::new(&parsed)).0;
        for (mode, a) in MODES.into_iter().zip(&shared) {
            let b = check_locks(&parsed, mode);
            let render = |r: &LockReport| {
                let mut s = format!("{r}\n");
                for e in &r.errors {
                    s.push_str(&format!("{e}\n"));
                }
                s
            };
            assert_eq!(
                render(a),
                render(&b),
                "module {} mode {:?}: rendered reports differ",
                m.name,
                mode
            );
        }
    }
}

/// The work-stealing runner must produce the same results in the same
/// order regardless of thread count — the experiment output is part of
/// the paper-reproduction contract and may not depend on scheduling —
/// and starts at most one worker per module.
#[test]
fn parallel_runner_is_deterministic() {
    let corpus = generate(DEFAULT_SEED);
    // A slice keeps this fast in debug builds while still giving the
    // stealing loop enough items to interleave on; three modules are
    // fewer than the eight workers asked for.
    for len in [60, 3] {
        let slice = &corpus[..len];
        let seq = sweep(slice, 1);
        let (par, bench) = measure_corpus_cached(slice, 8, DEFAULT_SEED, None);
        assert_eq!(bench.threads, len.min(8), "one worker per module at most");

        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name, "module order must not depend on jobs");
            assert_eq!(
                (a.no_confine, a.confine, a.all_strong),
                (b.no_confine, b.confine, b.all_strong),
                "module {}: results differ between jobs=1 and jobs=8",
                a.name
            );
        }
    }
}
