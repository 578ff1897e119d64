//! Integration tests for intra-module checking on the synthesized
//! mega-module.

use localias_core::SharedAnalysis;
use localias_corpus::{mega_edit, mega_module, GeneratedModule, MegaEditKind};
use localias_cqual::{check_modes, CallGraph, IncrementalSession, LockReport};

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
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&parsed))
        .0
        .map(|r| r.error_count());
    assert_eq!(
        (nc, cf, st),
        (m.expect.no_confine, m.expect.confine, m.expect.all_strong),
        "mega-module error triple"
    );
}

/// The schedule of the three-layer mega DAG lists every function exactly
/// once.
#[test]
fn mega_module_schedule_covers_every_function() {
    let m = mega_module(20030609, 60);
    let parsed = m.parse();
    let graph = CallGraph::build(&parsed);
    assert_eq!(graph.len(), 60);
    let mut seen = vec![0usize; graph.len()];
    for &v in graph.order() {
        seen[v] += 1;
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "each function exactly once in the order: {seen:?}"
    );
}

fn from_scratch(m: &GeneratedModule) -> [LockReport; 3] {
    check_modes(&mut SharedAnalysis::new(&m.parse())).0
}

/// The `localias watch` path on a large module: one session takes four
/// closed-form edits (Compute and BreakLock alternating), a whitespace
/// edit and a byte-identical repeat of it.
#[test]
fn mega_edits_through_a_session_match_their_closed_forms() {
    const SEED: u64 = 20030609;
    const FUNS: usize = 120;
    let base = mega_module(SEED, FUNS);
    let mut session = IncrementalSession::new(&base.name, 1);
    session
        .analyze(&base.source)
        .expect("the generated module parses");
    let kinds = [
        MegaEditKind::Compute,
        MegaEditKind::BreakLock,
        MegaEditKind::Compute,
        MegaEditKind::BreakLock,
        MegaEditKind::Whitespace,
    ];
    let mut edits = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| mega_edit(SEED, FUNS, i as u64, kind))
        .collect::<Vec<_>>();
    edits.push(edits.last().expect("five edits").clone());
    for (i, e) in edits.iter().enumerate() {
        let out = session.analyze(&e.module.source).expect("edits parse");
        let x = e.module.expect;
        assert_eq!(
            out.reports.each_ref().map(LockReport::error_count),
            [x.no_confine, x.confine, x.all_strong],
            "edit {i} ({:?}): closed-form triple",
            e.kind
        );
        assert_eq!(out.reports, from_scratch(&e.module), "edit {i}");
        assert_eq!(out.stats.module_hit, i == kinds.len(), "edit {i}");
    }
}
