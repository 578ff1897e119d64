//! End-to-end tests of the flow-sensitive lock checker across the three
//! Section 7 analysis modes.

use localias_ast::parse_module;
use localias_ast::Module;
use localias_core::SharedAnalysis;
use localias_cqual::{check_locks, check_locks_frozen, check_modes, LockOp, Mode};

fn parse(src: &str) -> Module {
    parse_module("test", src).expect("parse")
}

/// `(no-confine, confine-inference, all-strong)` error counts.
fn counts(src: &str) -> (usize, usize, usize) {
    let m = parse(src);
    let [nc, cf, st] = check_modes(&mut SharedAnalysis::new(&m)).map(|r| r.error_count());
    (nc, cf, st)
}

#[test]
fn scalar_global_lock_verifies_everywhere() {
    // A single global lock is a single-object location: strong updates
    // need no confine at all.
    let (none, conf, strong) = counts(
        r#"
        lock mu;
        extern void work();
        void f() {
            spin_lock(&mu);
            work();
            spin_unlock(&mu);
        }
        "#,
    );
    assert_eq!((none, conf, strong), (0, 0, 0));
}

#[test]
fn lock_array_needs_confine() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        "#,
    );
    assert!(none > 0, "weak updates must fail: {none}");
    assert_eq!(conf, 0, "confine inference recovers the updates");
    assert_eq!(strong, 0);
    assert_eq!(none, 1, "exactly the unlock site fails");
}

#[test]
fn genuine_double_acquire_is_reported_in_all_modes() {
    let (none, conf, strong) = counts(
        r#"
        lock mu;
        void f() {
            spin_lock(&mu);
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    assert!(strong > 0, "a real bug survives all-strong: {strong}");
    assert!(conf >= strong);
    assert!(none >= strong);
}

#[test]
fn genuine_double_release() {
    let (_, conf, strong) = counts(
        r#"
        lock mu;
        void f() {
            spin_lock(&mu);
            spin_unlock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    assert!(strong > 0);
    assert!(conf > 0);
}

#[test]
fn branches_join() {
    // Lock held on one branch only: the unlock afterwards cannot be
    // verified even with strong updates.
    let (_, _, strong) = counts(
        r#"
        lock mu;
        void f(int c) {
            if (c) { spin_lock(&mu); }
            spin_unlock(&mu);
        }
        "#,
    );
    assert!(strong > 0, "⊤ after join must fail the release");
}

#[test]
fn balanced_branches_are_fine() {
    let (none, conf, strong) = counts(
        r#"
        lock mu;
        extern void a();
        extern void b();
        void f(int c) {
            spin_lock(&mu);
            if (c) { a(); } else { b(); }
            spin_unlock(&mu);
        }
        "#,
    );
    assert_eq!((none, conf, strong), (0, 0, 0));
}

#[test]
fn loops_reach_a_fixpoint() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[4];
        extern void work();
        void f(int n) {
            for (int i = 0; i < n; i = i + 1) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    assert!(none > 0, "weak in-loop updates fail: {none}");
    assert_eq!(conf, 0, "confine in the loop body succeeds");
    assert_eq!(strong, 0);
}

#[test]
fn lock_held_across_loop_fails_even_strong() {
    // Acquiring inside the loop without releasing: the second iteration
    // double-acquires.
    let (_, _, strong) = counts(
        r#"
        lock mu;
        void f(int n) {
            while (n > 0) {
                spin_lock(&mu);
                n = n - 1;
            }
        }
        "#,
    );
    assert!(strong > 0);
}

#[test]
fn restrict_param_transfers_state_through_calls() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[8];
        extern void work();
        void do_with_lock(lock *restrict l) {
            spin_lock(l);
            work();
            spin_unlock(l);
        }
        void foo(int i) { do_with_lock(&locks[i]); }
        "#,
    );
    // The restrict parameter gives the callee a single-object location:
    // no mode reports errors.
    assert_eq!((none, conf, strong), (0, 0, 0));
}

#[test]
fn unrestricted_param_needs_weak_updates() {
    let (none, _, strong) = counts(
        r#"
        lock locks[8];
        extern void work();
        void do_with_lock(lock *l) {
            spin_lock(l);
            work();
            spin_unlock(l);
        }
        void foo(int i) { do_with_lock(&locks[i]); }
        void bar(int i) { do_with_lock(&locks[i]); }
        "#,
    );
    assert!(none > 0, "unrestricted shared param conflates: {none}");
    assert_eq!(strong, 0);
}

#[test]
fn explicit_confine_statement_is_honored() {
    let m = parse(
        r#"
        lock locks[4];
        extern void work();
        void f(int i) {
            confine (&locks[i]) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    let r = check_locks(&m, Mode::NoConfine);
    assert_eq!(
        r.error_count(),
        0,
        "explicit confine enables strong updates without inference: {:?}",
        r.errors
    );
}

#[test]
fn sites_are_counted_once() {
    let m = parse(
        r#"
        lock mu;
        void helper() { spin_lock(&mu); spin_unlock(&mu); }
        void a() { helper(); }
        void b() { helper(); helper(); }
        "#,
    );
    let r = check_locks(&m, Mode::AllStrong);
    assert_eq!(r.sites, 2, "syntactic sites, not dynamic calls");
}

#[test]
fn interprocedural_requirement_at_call_site() {
    // Calling a routine that acquires `mu` while already holding it.
    let m = parse(
        r#"
        lock mu;
        void acquire() { spin_lock(&mu); }
        void f() {
            spin_lock(&mu);
            acquire();
        }
        "#,
    );
    let r = check_locks(&m, Mode::AllStrong);
    assert!(
        r.errors.iter().any(|e| e.op == LockOp::CallRequirement),
        "call-boundary violation must be reported: {:?}",
        r.errors
    );
}

#[test]
fn recursion_havocs_conservatively() {
    let m = parse(
        r#"
        lock mu;
        void rec(int n) {
            if (n > 0) { rec(n - 1); }
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    // Must terminate and not panic; the recursive call havocs.
    let r = check_locks(&m, Mode::AllStrong);
    assert_eq!(r.sites, 2);
}

#[test]
fn sequential_confined_regions() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[4];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
        }
        "#,
    );
    assert!(none > 0);
    assert_eq!(conf, 0, "one confined region covers both pairs");
    assert_eq!(strong, 0);
}

#[test]
fn cast_defeats_confine_but_not_all_strong() {
    let (none, conf, strong) = counts(
        r#"
        lock locks[4];
        int sink;
        extern void work();
        void f(int i) {
            sink = (int) (&locks[i]);
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        "#,
    );
    assert!(none > 0);
    assert!(conf > 0, "taint blocks confine: {conf}");
    assert_eq!(strong, 0, "all-strong is the upper bound");
}

#[test]
fn inferred_param_restricts_enable_strong_updates() {
    // The same program that fails with weak updates becomes clean once
    // parameter-restrict inference supplies the Figure 1 annotation.
    let m = parse(
        r#"
        lock locks[8];
        extern void work();
        void do_with_lock(lock *l) {
            spin_lock(l);
            work();
            spin_unlock(l);
        }
        void foo(int i) { do_with_lock(&locks[i]); }
        "#,
    );
    assert!(check_locks(&m, Mode::NoConfine).error_count() > 0);

    let mut analysis = localias_core::infer_param_restricts(&m);
    let frozen = analysis.freeze();
    let r = check_locks_frozen(&m, &analysis, &frozen, Mode::NoConfine, 1);
    assert_eq!(
        r.error_count(),
        0,
        "inferred parameter restrict must transfer state like the explicit one: {:?}",
        r.errors
    );
}

#[test]
fn restrict_declaration_enables_strong_updates() {
    // The C99-style declaration form: scope is the rest of the block.
    let m = parse(
        r#"
        lock locks[4];
        extern void work();
        void f(int i) {
            restrict lock *l = &locks[i];
            spin_lock(l);
            work();
            spin_unlock(l);
        }
        "#,
    );
    let r = check_locks(&m, Mode::NoConfine);
    assert_eq!(
        r.error_count(),
        0,
        "the restrict declaration must enable strong updates: {:?}",
        r.errors
    );
}

#[test]
fn scoped_restrict_statement_enables_strong_updates() {
    let m = parse(
        r#"
        lock locks[4];
        extern void work();
        void f(lock *q) {
            restrict l = q {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
        }
        void g(int i) { f(&locks[i]); }
        "#,
    );
    let r = check_locks(&m, Mode::NoConfine);
    assert_eq!(r.error_count(), 0, "{:?}", r.errors);
}
