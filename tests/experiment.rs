//! Integration test of the Section 7 experiment: the Figure 7 rows are
//! measured exactly, and a stratified sample of the corpus matches its
//! calibrated expectations. (The full 589-module sweep is
//! `localias experiment`, which `scripts/check.sh` runs in release mode;
//! it is kept out of the default test run.)

use localias::ast::Module;
use localias::core::SharedAnalysis;
use localias::corpus::{generate, Category, DEFAULT_SEED, FIGURE7};
use localias::cqual::check_modes;

/// `(no-confine, confine, all-strong)` error counts of `m`.
fn triple(m: &Module) -> (usize, usize, usize) {
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(m))
        .0
        .map(|r| r.error_count());
    (nc, cf, st)
}

#[test]
fn figure7_rows_are_measured_exactly() {
    let corpus = generate(DEFAULT_SEED);
    for &(name, nc, cf, as_) in FIGURE7.iter() {
        let m = corpus.iter().find(|m| m.name == name).expect(name);
        let parsed = m.parse();
        let measured = triple(&parsed);
        assert_eq!(measured, (nc, cf, as_), "{name}");
    }
}

#[test]
fn stratified_sample_matches_calibration() {
    let corpus = generate(DEFAULT_SEED);
    let mut remaining = [6usize; 4]; // per category
    for m in &corpus {
        let slot = match m.category {
            Category::Clean => 0,
            Category::RealBugs => 1,
            Category::Recovered => 2,
            Category::Partial => 3,
        };
        if remaining[slot] == 0 {
            continue;
        }
        remaining[slot] -= 1;
        let parsed = m.parse();
        let measured = triple(&parsed);
        assert_eq!(
            measured,
            (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
            "{} ({:?})",
            m.name,
            m.category
        );
    }
    assert_eq!(remaining, [0, 0, 0, 0], "all categories sampled");
}

#[test]
fn a_different_seed_still_reproduces_the_population() {
    // The calibration is deterministic in shape, not tied to one seed.
    let corpus = generate(12345);
    assert_eq!(corpus.len(), 589);
    let clean = corpus
        .iter()
        .filter(|m| m.category == Category::Clean)
        .count();
    assert_eq!(clean, 352);
    let eliminated: usize = corpus.iter().map(|m| m.expect.eliminated()).sum();
    assert_eq!(eliminated, 3116);
}

/// The full 589-module sweep: measured error counts equal the calibrated
/// expectations for *every* module. Takes ~30 s in debug mode, so it is
/// ignored by default; run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full corpus sweep; run explicitly (fast under --release)"]
fn full_corpus_measures_exactly_as_calibrated() {
    let corpus = generate(DEFAULT_SEED);
    let mut mismatches = Vec::new();
    for m in &corpus {
        let parsed = m.parse();
        let measured = triple(&parsed);
        let expected = (m.expect.no_confine, m.expect.confine, m.expect.all_strong);
        if measured != expected {
            mismatches.push(format!("{}: {measured:?} != {expected:?}", m.name));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
