//! `IncrementalSession` against checking from scratch: every version of
//! a module a session sees gets the reports `check_modes` gives it.

use localias_ast::parse_module;
use localias_core::SharedAnalysis;
use localias_cqual::{check_modes, IncrementalSession, LockReport};

fn from_scratch(source: &str) -> [LockReport; 3] {
    let m = parse_module("m", source).expect("parse");
    check_modes(&mut SharedAnalysis::new(&m)).0
}

/// Drives `sources` through one session: no step is a module hit, and
/// every report equals checking that source from scratch.
fn assert_identical(sources: &[&str]) {
    let mut session = IncrementalSession::new("m", 1);
    for (step, src) in sources.iter().enumerate() {
        let out = session.analyze(src).expect("parse");
        assert!(!out.stats.module_hit, "step {step}");
        assert_eq!(out.stats.rechecked, out.stats.slots, "step {step}");
        assert_eq!(out.reports, from_scratch(src), "step {step}: {src}");
    }
}

const CHAIN: &str = "lock l;\n\
    void leaf(int n) { int a = 1; }\n\
    void mid(int n) { leaf(n); }\n\
    void top(int n) { mid(n); }\n";

const SCC: &str = "void a(int n) { if (n > 0) { b(n - 1); } }\n\
    void b(int n) { if (n > 0) { a(n - 1); } }\n\
    void solo(int n) { int x = 1; }\n";

const SIGNATURE: &str = "lock locks[4];\n\
    extern void work();\n\
    void leaf(lock *restrict p) { spin_lock(p); work(); spin_unlock(p); }\n\
    void mid(int i) { leaf(&locks[i]); }\n\
    void top(int i) { mid(i); }\n";

const LOCK_PAIR: &str = "lock arr[8];\n\
    extern void work();\n\
    void leaf(int n) { spin_lock(&arr[n]); work(); spin_unlock(&arr[n]); }\n\
    void mid(int n) { leaf(n); }\n\
    void top(int n) { mid(n); }\n";

/// Edits of every shape a finer-grained session could get wrong, each
/// run there and back (v1 → v2 → v1) in its own session.
#[test]
fn every_edit_sequence_matches_checking_from_scratch() {
    // (v1, text replaced in v1, its replacement in v2)
    let edits = [
        // Comments and blank lines only.
        (CHAIN, "void leaf", "\n// a comment\nvoid leaf"),
        // An interior edit that keeps `leaf`'s summary.
        (CHAIN, "int a = 1;", "int a = 2; int b = a + 1;"),
        // `leaf` now acquires the lock: its summary changes, and so do
        // its transitive callers'.
        (CHAIN, "int a = 1;", "spin_lock(&l);"),
        // An edit inside a mutual-recursion cycle.
        (SCC, "(n > 0) { a(n - 1)", "(n > 1) { a(n - 2)"),
        // `mid` passes a second restrict argument.
        (
            SIGNATURE,
            "leaf(&locks[i]); }",
            "leaf(&locks[i]); leaf(&locks[i + 1]); }",
        ),
        // A new global.
        (CHAIN, "lock l;\n", "lock l;\nint g;\n"),
        // A renamed function.
        (CHAIN, "leaf", "leaf2"),
        // A broken lock pair: the second acquire errs with confine.
        (LOCK_PAIR, "spin_unlock", "spin_lock"),
        // The same break padded to the same length: only the text tells
        // the versions apart.
        (LOCK_PAIR, "spin_unlock(", "spin_lock  ("),
    ];
    for (v1, from, to) in edits {
        let v2 = v1.replace(from, to);
        assert_ne!(v1, v2, "`{from}` occurs in v1");
        assert_identical(&[v1, &v2, v1]);
    }
}

#[test]
fn byte_identical_source_is_a_module_hit() {
    let mut s = IncrementalSession::new("m", 1);
    s.analyze(CHAIN).expect("parse");
    let out = s.analyze(CHAIN).expect("parse");
    assert!(out.stats.module_hit);
    assert_eq!(out.stats.rechecked, 0);
    assert_eq!(out.reports, from_scratch(CHAIN));
}

/// `localias watch` reads files that may be half saved: one that does
/// not parse must leave the session with its last good version.
#[test]
fn parse_error_leaves_the_session_intact() {
    let mut s = IncrementalSession::new("m", 1);
    let v1 = s.analyze(CHAIN).expect("parse");
    assert!(s.analyze("lock l;\nvoid leaf(int n) {").is_err());
    let again = s.analyze(CHAIN).expect("parse");
    assert!(again.stats.module_hit);
    assert_eq!(again.reports, v1.reports);
}
