//! Integration tests for the intra-module (wave-parallel) checking
//! pipeline on the synthesized mega-module.

use localias_core::SharedAnalysis;
use localias_corpus::mega_module;
use localias_cqual::{check_locks_frozen, check_locks_frozen_timed, check_modes, Mode, MODES};

#[test]
fn mega_module_generator_is_deterministic() {
    let a = mega_module(20030609, 60);
    let b = mega_module(20030609, 60);
    assert_eq!(a.source, b.source);
    assert_eq!(a.name, b.name);
}

#[test]
fn mega_module_matches_its_expected_triple() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&parsed)).map(|r| r.error_count());
    assert_eq!(
        (nc, cf, st),
        (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
        "mega-module error triple"
    );
}

/// `--intra-jobs 1` vs `N`: byte-identical reports across all three
/// modes — the pinned acceptance criterion of the wave-parallel checker.
#[test]
fn mega_module_reports_are_thread_invariant() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let mut shared = SharedAnalysis::new(&parsed);
    let all = check_modes(&mut shared);
    for (mode, sequential) in MODES.into_iter().zip(&all) {
        for jobs in [0, 2, 4, 8] {
            let (analysis, frozen) = mode.analysis(&mut shared);
            let parallel = check_locks_frozen(&parsed, analysis, frozen, mode, jobs);
            assert_eq!(&parallel, sequential, "{mode:?} at intra_jobs={jobs}");
        }
    }
}

/// The wave schedule of the three-layer mega DAG: every function is
/// checked exactly once, and the timed entry point agrees with the
/// untimed one.
#[test]
fn mega_module_wave_stats_cover_every_function() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let mut shared = SharedAnalysis::new(&parsed);
    let (analysis, frozen) = Mode::NoConfine.analysis(&mut shared);
    let (report, stats) = check_locks_frozen_timed(&parsed, analysis, frozen, Mode::NoConfine, 4);
    assert_eq!(stats.functions, 60);
    let waved: usize = stats.waves.iter().map(|w| w.functions).sum();
    assert_eq!(waved, 60, "each function in exactly one wave");
    assert!(stats.waves.len() >= 3, "three-layer DAG has >= 3 waves");
    assert_eq!(report.error_count(), m.expect.no_confine);
}
