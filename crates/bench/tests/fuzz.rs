//! Harness tests for the differential fuzzer: determinism of the
//! corpus and verdict stream, and the end-to-end oracle property that
//! a deliberately broken checker is caught as unsound and shrunk to a
//! deterministic, 1-minimal counterexample. One test also keeps the
//! Andersen freeze, which `localias fuzz` no longer runs, under the
//! oracle.

use localias_alias::Backend;
use localias_ast::{parse_module, pretty, Module};
use localias_bench::fuzz::{
    real_static_matrix, run_fuzz, run_fuzz_with, shrink_source, write_repros, DivergenceKind,
    FuzzConfig, StaticMatrix,
};
use localias_core::SharedAnalysis;
use localias_corpus::fuzz_module;
use localias_cqual::{check_locks_frozen, check_modes, LockReport, MODES};

fn cfg(iterations: u64, shrink: bool) -> FuzzConfig {
    FuzzConfig {
        seed: 42,
        iterations,
        fuel: 100_000,
        shrink,
    }
}

#[test]
fn same_seed_gives_byte_identical_corpus_and_verdict_stream() {
    // Corpus: module i of seed s is a pure function of (s, i).
    for i in 0..50 {
        assert_eq!(fuzz_module(42, i).source, fuzz_module(42, i).source);
    }
    // Full differential run: stream, tallies, and divergence list all
    // replay byte-identically.
    let a = run_fuzz(&cfg(60, true));
    let b = run_fuzz(&cfg(60, true));
    assert_eq!(a.stream, b.stream);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.dyn_faults, b.dyn_faults);
    assert!(!a.stream.is_empty());
    // A different seed draws a different corpus (and thus stream).
    let c = run_fuzz(&FuzzConfig {
        seed: 7,
        ..cfg(60, true)
    });
    assert_ne!(a.stream, c.stream);
}

#[test]
fn real_checker_survives_a_fuzz_sweep() {
    let report = run_fuzz(&cfg(250, true));
    assert!(
        report.clean(),
        "soundness divergences against the interpreter oracle:\n{}",
        report.summary()
    );
    assert_eq!(report.exec_errors, 0, "generated modules execute cleanly");
    assert!(report.dyn_faults > 0, "adversarial idioms actually fault");
    // The conservative ordering the paper predicts: confine inference
    // strictly improves on no-confine, all-strong bounds both.
    let [nc, cf, st] = &report.stats[0];
    assert!(nc.false_positive_funs >= cf.false_positive_funs);
    assert!(cf.false_positive_funs >= st.false_positive_funs);
    // Flagged-function recall is mode-independent: every dynamic
    // fault is flagged somewhere (no divergences above), and true
    // positives don't vary across modes on this corpus.
    assert_eq!(nc.true_positive_funs, cf.true_positive_funs);
}

/// The fuzzer's matrix runs the three modes over one shared analysis.
/// Row 0 must report exactly what a fresh analysis checked per mode
/// reports, and row 1 stays empty.
#[test]
fn real_static_matrix_equals_a_fresh_analysis() {
    for i in 0..200 {
        let fm = fuzz_module(42, i);
        let m = parse_module(&fm.name, &fm.source).expect("fuzz module parses");
        let fresh = MODES.map(|mode| {
            let mut shared = SharedAnalysis::new(&m);
            let (analysis, frozen) = mode.analysis(&mut shared);
            check_locks_frozen(&m, analysis, frozen, mode, 1)
        });
        let matrix = real_static_matrix(&m);
        assert_eq!(matrix.0[0], fresh, "{}", fm.name);
        assert_eq!(matrix.0[1], <[LockReport; 3]>::default(), "{}", fm.name);
    }
}

/// The Andersen freeze is reachable only through
/// `SharedAnalysis::new_with_backend`, so this test keeps it under the
/// oracle: checked in row 0, it must miss no real fault and give the
/// same precision tallies as Steensgaard on this corpus.
#[test]
fn andersen_freeze_is_sound_and_ties_steensgaard() {
    let andersen = |m: &Module| {
        let mut out = StaticMatrix::default();
        out.0[0] = check_modes(&mut SharedAnalysis::new_with_backend(m, Backend::Andersen));
        out
    };
    let cfg = cfg(300, true);
    let report = run_fuzz_with(&cfg, &andersen);
    assert!(
        report.clean(),
        "Andersen freeze missed real faults:\n{}",
        report.summary()
    );
    assert_eq!(report.stats[0], run_fuzz(&cfg).stats[0]);
}

/// A checker that sees nothing: every report empty under every mode.
/// The fuzzer must convict it.
fn blind_checker(_m: &Module) -> StaticMatrix {
    StaticMatrix::default()
}

#[test]
fn broken_checker_is_caught_as_unsound() {
    // No shrinking here — this pins *detection*; shrinking is pinned
    // separately on a single module below.
    let report = run_fuzz_with(&cfg(40, false), &blind_checker);
    assert!(
        !report.clean(),
        "a checker that reports nothing must miss real faults"
    );
    assert!(report
        .divergences
        .iter()
        .all(|d| d.kind == DivergenceKind::Unsound));
    // Every mode is implicated (the blind checker is blind
    // everywhere), and the stream records each conviction.
    let tagged = report
        .divergences
        .iter()
        .filter(|d| d.mode.is_some())
        .count();
    assert_eq!(tagged % 3, 0, "one divergence per mode");
    assert!(report.stream.contains("!! unsound"));
}

/// The blind checker misses each faulting entry under all three modes,
/// so one module yields several divergences of one kind. Their repro
/// file keeps every one: one header line per divergence.
#[test]
fn repro_files_keep_every_divergence() {
    let report = run_fuzz_with(&cfg(40, true), &blind_checker);
    let dir = std::env::temp_dir().join(format!("localias-fuzz-repros-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = write_repros(&dir, 42, &report).expect("repros written");
    let mut headers = 0;
    let mut written = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        headers += text.lines().filter(|l| l.starts_with("// !! ")).count();
        assert!(
            text.contains("// replay: localias fuzz --seed 42"),
            "{text}"
        );
        written += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, files);
    assert!(
        files < report.divergences.len(),
        "some file witnesses several"
    );
    assert_eq!(headers, report.divergences.len());
}

#[test]
fn divergence_shrinks_to_minimal_deterministic_repro() {
    // Find the first fuzz module whose execution faults, then shrink
    // it against the blind checker.
    let report = run_fuzz_with(&cfg(40, true), &blind_checker);
    let d = report
        .divergences
        .first()
        .expect("a faulting module within 40 iterations");
    let shrunk = d.shrunk.as_deref().expect("shrinking was enabled");
    assert!(
        shrunk.len() < d.source.len(),
        "shrinking made progress:\n{shrunk}"
    );
    // The witness still diverges: it faults dynamically, and a blind
    // checker still reports nothing.
    let sh = shrink_source(
        &d.module,
        shrunk,
        100_000,
        &blind_checker,
        DivergenceKind::Unsound,
    );
    assert_eq!(sh.source, *shrunk, "shrunk output is a fixpoint");
    assert_eq!(sh.steps, 0, "no further edit preserves the divergence");
    // And the real checker flags the shrunk witness — the repro is a
    // genuine bug module, not an artifact of shrinking.
    let m = parse_module(&d.module, shrunk).expect("repro parses");
    let matrix = real_static_matrix(&m);
    assert!(
        matrix.0[0].iter().all(|r| !r.errors.is_empty()),
        "real checker flags the shrunk repro under every mode:\n{shrunk}"
    );
    // Determinism: replaying the run shrinks to the same witness.
    let replay = run_fuzz_with(&cfg(40, true), &blind_checker);
    assert_eq!(replay.divergences[0].shrunk.as_deref(), Some(shrunk));
}

#[test]
fn shrinker_canonicalizes_and_is_idempotent_on_clean_modules() {
    // A module with no divergence comes back unchanged (modulo
    // pretty-printing) and costs nothing.
    let src = "lock mu;\nvoid f() { spin_lock(&mu); spin_unlock(&mu); }\n";
    let out = shrink_source(
        "m",
        src,
        100_000,
        &real_static_matrix,
        DivergenceKind::Unsound,
    );
    let canonical = pretty::print_module(&parse_module("m", src).unwrap());
    assert_eq!(out.source, canonical);
    assert_eq!(out.steps, 0);
}
