//! Integration tests running the paper's own example programs through
//! the full pipeline (parser → alias analysis → effect constraints →
//! checking/inference → flow-sensitive lock checking).

use localias::ast::parse_module;
use localias::core::{self, Reason};
use localias::cqual::{check_locks, check_modes, Mode};

#[test]
fn figure1_story_end_to_end() {
    // Unannotated: the abstract location of the lock array conflates all
    // elements, weak updates lose the state, and the unlock site cannot
    // be verified.
    let unannotated = parse_module(
        "fig1",
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
    )
    .unwrap();
    assert!(check_locks(&unannotated, Mode::NoConfine).error_count() > 0);

    // The paper's fix: the C99-style restrict parameter.
    let annotated = parse_module(
        "fig1r",
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
    )
    .unwrap();
    let a = core::check(&annotated);
    assert!(a.clean(), "{:?}", a.restricts);
    assert_eq!(check_locks(&annotated, Mode::NoConfine).error_count(), 0);
}

#[test]
fn section2_valid_and_invalid_dereferences() {
    // { int *restrict p = q; *p valid; *q invalid }
    let m = parse_module(
        "s2",
        "void f(int *q) { restrict int *p = q; *p = 1; *q = 2; }",
    )
    .unwrap();
    let a = core::check(&m);
    assert!(a.restricts[0].reasons.contains(&Reason::AliasAccessed));
}

#[test]
fn section2_rebinding_in_inner_scope() {
    let m = parse_module(
        "s2b",
        r#"
        void f(int *src) {
            restrict p = src {
                restrict r = p {
                    *r = 1;     // valid
                }
                *p = 2;         // valid again after r's scope
            }
        }
        "#,
    )
    .unwrap();
    let a = core::check(&m);
    assert!(a.restricts.iter().all(|r| r.ok()), "{:?}", a.restricts);
}

#[test]
fn section2_escaping_copy() {
    let m = parse_module(
        "s2c",
        r#"
        int *x;
        void f(int *q) {
            restrict p = q {
                int *r = p;   // valid: local copy
                *r = 1;
                x = p;        // invalid: copy escapes
            }
        }
        "#,
    )
    .unwrap();
    let a = core::check(&m);
    assert!(a.restricts[0].reasons.contains(&Reason::Escapes));
}

#[test]
fn section3_sneaky_double_restrict() {
    // restrict y = x in restrict z = x in ... *y ... *z — the extra
    // restriction effect must reject this.
    let m = parse_module(
        "s3",
        "void f(int *x) { restrict y = x { restrict z = x { *y = 1; *z = 2; } } }",
    )
    .unwrap();
    let a = core::check(&m);
    assert!(a.restricts.iter().any(|r| !r.ok()), "{:?}", a.restricts);
}

#[test]
fn section3_escape_example() {
    // The §3 example motivating the ρ' ∉ locs(Γ, τ1, τ2) side condition:
    // `p := q` inside q's restrict would create two unrestricted names
    // for the same location.
    let m = parse_module(
        "s3b",
        r#"
        void f() {
            int *x = new 0;
            int **p = new (new 1);
            restrict q = x {
                p = &q;
            }
        }
        "#,
    )
    .unwrap();
    let a = core::check(&m);
    assert!(
        a.restricts.iter().any(|r| !r.ok()),
        "storing &q lets ρ' escape: {:?}",
        a.restricts
    );
}

#[test]
fn section6_confine_example() {
    // The §6 rewriting of the locks example with confine, explicit form.
    let m = parse_module(
        "s6",
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            confine (&locks[i]) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
        }
        "#,
    )
    .unwrap();
    let a = core::check(&m);
    assert!(a.clean(), "{:?}", a.confines);
    assert_eq!(check_locks(&m, Mode::NoConfine).error_count(), 0);
}

#[test]
fn section6_confine_inference_matches_explicit() {
    // Inference must discover what the explicit annotation stated.
    let src_plain = r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
    "#;
    let m = parse_module("s6b", src_plain).unwrap();
    let inf = core::infer_confines(&m);
    assert_eq!(inf.chosen.len(), 1);
    assert_eq!(check_locks(&m, Mode::Confine).error_count(), 0);
}

#[test]
fn adjacent_confines_merge() {
    // §7: (confine e in e1; confine e in e2) = confine e in {e1; e2} —
    // the heuristic greedily merges adjacent statements with matching
    // change_type arguments into one region.
    let m = parse_module(
        "merge",
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
        }
        "#,
    )
    .unwrap();
    let inf = core::infer_confines(&m);
    // One merged region covering all four statements.
    let chosen: Vec<_> = inf.chosen.iter().map(|&i| &inf.candidates[i]).collect();
    assert_eq!(chosen.len(), 1, "{chosen:?}");
    assert_eq!((chosen[0].start, chosen[0].end), (0, 3));
    assert_eq!(check_locks(&m, Mode::Confine).error_count(), 0);
}

#[test]
fn change_type_alias_for_intrinsics() {
    // The generic change_type statement is accepted and conservatively
    // invalidates the lock's state.
    let m = parse_module(
        "ct",
        r#"
        lock mu;
        void f() {
            change_type(&mu);
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    )
    .unwrap();
    let r = check_locks(&m, Mode::AllStrong);
    assert!(
        r.error_count() > 0,
        "state unknown after change_type: {:?}",
        r.errors
    );
}

#[test]
fn pretty_printed_corpus_module_reanalyzes_identically() {
    // Cross-crate: generate a module, print it, re-parse it, and get the
    // same lock verdicts.
    let corpus = localias::corpus::generate(7);
    let m = corpus
        .iter()
        .find(|m| m.expect.no_confine > 0)
        .expect("an erroring module");
    let parsed = m.parse();
    let printed = localias::ast::pretty::print_module(&parsed);
    let reparsed = parse_module(&m.name, &printed).unwrap();
    let counts = |m| {
        check_modes(&mut core::SharedAnalysis::new(m))
            .0
            .map(|r| r.error_count())
    };
    assert_eq!(counts(&parsed), counts(&reparsed));
}
