//! Regression tests for checker/interpreter divergences surfaced by
//! `localias fuzz` (the differential soundness fuzzer in
//! `localias-bench`). Each test carries the shrunk counterexample the
//! fuzzer produced and pins the post-fix static verdict.

use localias_ast::parse_module;
use localias_core::SharedAnalysis;
use localias_cqual::{check_modes, LockState, MODES};

/// The recursion-havoc soundness hole (fixed in `store.rs`): a call
/// into a recursive cycle havocs the caller's store, but havoc used to
/// Top only the locations *already present* — a lock the cycle
/// acquires without the caller ever mentioning it stayed implicitly
/// `unlocked`, so the cycle's effects silently vanished at every call
/// site and all three modes blessed a module the interpreter faults on
/// (`b(1)` acquires `mu` twice).
///
/// Shrunk witness from the fuzzer's `recursive_relock` idiom. Post-fix,
/// `a`'s re-acquire after the cyclic call to `b` sees ⊤ and every mode
/// reports exactly that site.
#[test]
fn recursive_cycle_havoc_clobbers_unmentioned_locks() {
    let m = parse_module(
        "rec",
        r#"
lock mu;
void a(int n) {
    if (n) { b(n - 1); }
    spin_lock(&mu);
    spin_unlock(&mu);
}
void b(int n) {
    a(n);
    spin_lock(&mu);
}
"#,
    )
    .unwrap();
    let reports = check_modes(&mut SharedAnalysis::new(&m));
    for (mode, r) in MODES.into_iter().zip(reports) {
        assert_eq!(
            r.error_count(),
            1,
            "{mode:?}: the havocked re-acquire must be unverifiable"
        );
        let e = &r.errors[0];
        assert_eq!(e.fun, "a", "{mode:?}: attributed to the post-havoc site");
        assert_eq!(
            e.found,
            LockState::Top,
            "{mode:?}: havoc means ⊤, not unlocked"
        );
    }
}

/// The same hole, one level out: the havoc must propagate through the
/// *summary* of a function that calls into a cycle, or callers outside
/// the clique still see a clean exit state. `outside` never mentions
/// the cycle, yet its unlock after calling `a` cannot be verified.
#[test]
fn havoc_propagates_through_summaries_to_outside_callers() {
    let m = parse_module(
        "rec2",
        r#"
lock mu;
void a(int n) {
    if (n) { b(n - 1); }
}
void b(int n) {
    a(n);
    spin_lock(&mu);
    spin_unlock(&mu);
}
void outside(int n) {
    spin_lock(&mu);
    a(n);
    spin_unlock(&mu);
}
"#,
    )
    .unwrap();
    let reports = check_modes(&mut SharedAnalysis::new(&m));
    for (mode, r) in MODES.into_iter().zip(reports) {
        assert!(
            r.errors
                .iter()
                .any(|e| e.fun == "outside" && e.found == LockState::Top),
            "{mode:?}: a's havocked summary must clobber outside's held lock, got {:?}",
            r.errors
        );
    }
}

/// Control: recursion whose cycle is lock-balanced on every path still
/// havocs (the analysis cannot prove balance across the cycle), which
/// is conservative but sound — and the non-recursive sibling function
/// is unaffected.
#[test]
fn havoc_is_scoped_to_cycle_callers() {
    let m = parse_module(
        "rec3",
        r#"
lock mu;
lock other;
void spin(int n) {
    if (n) { spin(n - 1); }
}
void clean() {
    spin_lock(&other);
    spin_unlock(&other);
}
"#,
    )
    .unwrap();
    let reports = check_modes(&mut SharedAnalysis::new(&m));
    for (mode, r) in MODES.into_iter().zip(reports) {
        assert!(
            r.errors.iter().all(|e| e.fun != "clean"),
            "{mode:?}: functions that never reach the cycle keep their precision"
        );
    }
}

/// Check the checker against the shrunken module's ground truth end to
/// end at the Mini-C level: self-recursive lock acquisition inside the
/// cycle body is also caught (the self-call havocs the store before
/// the second acquire).
#[test]
fn self_recursive_relock_is_flagged() {
    let m = parse_module(
        "selfrec",
        r#"
lock mu;
void f(int n) {
    spin_lock(&mu);
    spin_unlock(&mu);
    if (n) { f(n - 1); }
    spin_lock(&mu);
    spin_unlock(&mu);
}
"#,
    )
    .unwrap();
    let reports = check_modes(&mut SharedAnalysis::new(&m));
    for (mode, r) in MODES.into_iter().zip(reports) {
        assert!(
            r.errors.iter().any(|e| e.found == LockState::Top),
            "{mode:?}: the post-recursion re-acquire sees ⊤"
        );
    }
}
