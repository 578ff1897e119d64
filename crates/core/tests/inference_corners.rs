//! Corner cases of restrict and confine inference: odd scopes, shadowing,
//! nested candidates, interactions between the two inference modes, and
//! idempotence properties.

use localias_ast::{parse_module, Module};
use localias_core::{analyze, check, infer_confines, infer_restricts, Options, Reason};

fn parse(src: &str) -> Module {
    parse_module("corner", src).expect("parse")
}

#[test]
fn candidate_in_nested_block_scopes_to_that_block() {
    // The inner block's `p` dies with the block, so `*q` afterwards is
    // outside its scope — `p` can be restrict.
    let m = parse(
        r#"
        void f(int *q) {
            {
                int *p = q;
                *p = 1;
            }
            *q = 2;
        }
        "#,
    );
    let a = infer_restricts(&m);
    assert_eq!(a.candidates.len(), 1);
    assert!(a.candidates[0].restricted, "{:?}", a.candidates);
}

#[test]
fn uninitialized_declarations_are_not_candidates() {
    let m = parse("void f(int *q) { int *p; p = q; *p = 1; *q = 2; }");
    let a = infer_restricts(&m);
    assert!(
        a.candidates.is_empty(),
        "let-or-restrict needs an initializer: {:?}",
        a.candidates
    );
}

#[test]
fn shadowing_keeps_candidates_separate() {
    let m = parse(
        r#"
        void f(int *q, int *r) {
            int *p = q;
            *p = 1;
            {
                int *p = r;
                *p = 2;
            }
        }
        "#,
    );
    let a = infer_restricts(&m);
    assert_eq!(a.candidates.len(), 2);
    assert!(
        a.candidates.iter().all(|c| c.restricted),
        "both shadowed bindings are independent: {:?}",
        a.candidates
    );
}

#[test]
fn heap_pointer_candidates() {
    // A fresh allocation is trivially unaliased: always restrictable.
    let m = parse("void f() { int *p = new (1); *p = 2; }");
    let a = infer_restricts(&m);
    assert!(a.candidates[0].restricted);
}

#[test]
fn inference_modes_compose() {
    // Running decl-inference and param-inference together: each candidate
    // gets its own verdict.
    let m = parse(
        r#"
        lock locks[8];
        extern void work();
        void dwl(lock *l) {
            lock *own = l;
            spin_lock(own);
            work();
            spin_unlock(own);
        }
        void foo(int i) { dwl(&locks[i]); }
        "#,
    );
    let a = analyze(
        &m,
        Options {
            infer_restrict: true,
            infer_restrict_params: true,
            ..Options::default()
        },
    );
    let by_name = |n: &str| {
        a.candidates
            .iter()
            .find(|c| c.name == n)
            .unwrap_or_else(|| panic!("candidate {n}: {:?}", a.candidates))
    };
    // The param can be restrict... and then `own` (a copy of l, used
    // exclusively) can too.
    assert!(by_name("l").restricted, "{:?}", a.candidates);
    assert!(by_name("own").restricted, "{:?}", a.candidates);
}

#[test]
fn confine_then_explicit_confine_nest() {
    // An explicit confine inside a larger inferable region: both levels
    // must verify (nested confines chain ρ → ρ' → ρ'').
    let m = parse(
        r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
            confine (&locks[i]) {
                spin_lock(&locks[i]);
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    let inf = infer_confines(&m);
    let explicit_ok = inf
        .analysis
        .confines
        .iter()
        .filter(|c| c.explicit)
        .all(|c| c.ok());
    assert!(explicit_ok, "{:?}", inf.analysis.confines);
    assert!(!inf.chosen.is_empty(), "{:?}", inf.analysis.confines);
}

#[test]
fn confine_inference_is_idempotent_on_outcomes() {
    let m = parse(
        r#"
        lock locks[8];
        extern void work();
        void f(int i, int c) {
            if (c) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    let a = infer_confines(&m);
    let b = infer_confines(&m);
    assert_eq!(a.chosen, b.chosen);
    assert_eq!(a.candidates.len(), b.candidates.len());
}

#[test]
fn two_locks_two_regions_both_confined() {
    let m = parse(
        r#"
        lock tx_locks[4];
        lock rx_locks[4];
        extern void tx();
        extern void rx();
        void f(int i) {
            spin_lock(&tx_locks[i]);
            tx();
            spin_unlock(&tx_locks[i]);
            spin_lock(&rx_locks[i]);
            rx();
            spin_unlock(&rx_locks[i]);
        }
        "#,
    );
    let inf = infer_confines(&m);
    assert_eq!(inf.chosen.len(), 2, "{:?}", inf.analysis.confines);
}

#[test]
fn interleaved_distinct_locks_confine_with_overlapping_regions() {
    // lock A; lock B; unlock A; unlock B — regions overlap but the locks
    // are distinct arrays, so both confines hold.
    let m = parse(
        r#"
        lock a_locks[4];
        lock b_locks[4];
        extern void work();
        void f(int i) {
            spin_lock(&a_locks[i]);
            spin_lock(&b_locks[i]);
            work();
            spin_unlock(&a_locks[i]);
            spin_unlock(&b_locks[i]);
        }
        "#,
    );
    let inf = infer_confines(&m);
    assert_eq!(
        inf.chosen.len(),
        2,
        "independent overlapping regions: {:?}",
        inf.analysis.confines
    );
}

#[test]
fn explicit_restrict_inside_candidate_region() {
    // A hand-written restrict of an unrelated pointer inside a confine
    // candidate region must not block the confine.
    let m = parse(
        r#"
        lock locks[4];
        int scratch;
        void f(int i, int *q) {
            spin_lock(&locks[i]);
            restrict p = q { *p = 1; }
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let inf = infer_confines(&m);
    assert!(!inf.chosen.is_empty(), "{:?}", inf.analysis.confines);
    let a = check(&m);
    assert!(a.restricts[0].ok());
}

#[test]
fn unused_restrict_inside_confine_region_is_harmless() {
    // Restricting the (already confined) lock element but never using the
    // new name: under the paper's liberal semantics the unused restrict
    // carries no restriction effect, so both the restrict and the
    // surrounding confine hold — and the program executes cleanly.
    let m = parse(
        r#"
        lock locks[4];
        void f(int i) {
            spin_lock(&locks[i]);
            restrict p = &locks[i] { p; }
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let inf = infer_confines(&m);
    assert!(
        !inf.chosen.is_empty(),
        "the confine still holds: {:?}",
        inf.analysis.confines
    );
}

#[test]
fn using_confined_lock_inside_its_restrict_scope_fails() {
    // Inside `p`'s restrict scope the confined occurrence `&locks[i]`
    // denotes the *outer* fresh location — which is exactly what p
    // restricts, so using it there is an alias access.
    let m = parse(
        r#"
        lock locks[4];
        void f(int i) {
            spin_lock(&locks[i]);
            restrict p = &locks[i] {
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    let inf = infer_confines(&m);
    let rejected = inf
        .analysis
        .restricts
        .iter()
        .any(|r| r.reasons.contains(&Reason::AliasAccessed));
    assert!(
        rejected,
        "the restrict must reject the occurrence access: {:?}",
        inf.analysis.restricts
    );
}

#[test]
fn reasons_surface_for_rejections() {
    let m = parse(
        r#"
        lock locks[4];
        int sink;
        void f(int i) {
            sink = (int) (&locks[i]);
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let inf = infer_confines(&m);
    let reasons: Vec<&Reason> = inf
        .analysis
        .confines
        .iter()
        .flat_map(|c| c.reasons.iter())
        .collect();
    assert!(
        reasons.contains(&&Reason::Tainted) || reasons.contains(&&Reason::AliasAccessed),
        "{reasons:?}"
    );
}

#[test]
fn general_strategy_recovers_interleaved_regions() {
    // Two critical sections on element i, with a section on element j
    // (the same abstract location) between them. The heuristic's min–max
    // range for &locks[i] spans j's accesses and fails; the general
    // strategy's disjoint pair candidates succeed.
    let src = r#"
        lock locks[8];
        extern void a();
        extern void b();
        extern void c();
        void f(int i, int j) {
            spin_lock(&locks[i]);
            a();
            spin_unlock(&locks[i]);
            spin_lock(&locks[j]);
            b();
            spin_unlock(&locks[j]);
            spin_lock(&locks[i]);
            c();
            spin_unlock(&locks[i]);
        }
    "#;
    let m = parse(src);

    let heuristic = localias_core::infer_confines(&m);
    let chosen_i: Vec<_> = heuristic
        .chosen
        .iter()
        .map(|&k| &heuristic.candidates[k])
        .filter(|c| c.key == "&(locks[i])")
        .collect();
    assert!(
        chosen_i.is_empty(),
        "the min–max range for i spans j's section and must fail: {chosen_i:?}"
    );

    let general = localias_core::infer_confines_general(&m);
    let chosen_i: Vec<_> = general
        .chosen
        .iter()
        .map(|&k| &general.candidates[k])
        .filter(|c| c.key == "&(locks[i])")
        .collect();
    assert!(
        chosen_i.len() >= 2,
        "both of i's sections are individually confinable: {:?}",
        general.analysis.confines
    );
}

#[test]
fn general_strategy_subsumes_heuristic_on_simple_regions() {
    let src = r#"
        lock locks[8];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
    "#;
    let m = parse(src);
    let h = localias_core::infer_confines(&m);
    let g = localias_core::infer_confines_general(&m);
    assert!(!h.chosen.is_empty());
    assert!(!g.chosen.is_empty());
    // The general strategy's outermost success covers at least the
    // heuristic's range.
    let h_best = &h.candidates[h.chosen[0]];
    let covered = g
        .chosen
        .iter()
        .map(|&k| &g.candidates[k])
        .any(|c| c.key == h_best.key && c.start <= h_best.start && h_best.end <= c.end);
    assert!(covered, "general must not lose the heuristic's region");
}

/// `confine?` ranges activate and deactivate at statement boundaries:
/// one block holds nested, equal and adjacent ranges, ranges that end
/// at the block's last statement, and several candidates for one
/// expression. Every verdict and the outermost selection are pinned.
#[test]
fn range_deactivation_over_nested_equal_and_adjacent_ranges() {
    use localias_ast::{parse_expr, pretty};
    use localias_core::{block_parents, encloses, select_outermost, ConfineCandidate};

    let m = parse(
        r#"
        lock a; lock b; lock *pa;
        extern void work();
        void g() { pa = &a; }
        void f() {
            spin_lock(&a);
            spin_unlock(&a);
            spin_lock(&a);
            spin_unlock(pa);
            spin_lock(&b);
            work();
            spin_unlock(&b);
        }
        "#,
    );
    let block = m.function("f").expect("f").body.id;
    let cand = |src: &str, start: usize, end: usize| {
        let expr = parse_expr(src).expect("expr");
        ConfineCandidate {
            block,
            start,
            end,
            key: pretty::print_expr(&expr),
            expr,
        }
    };
    let candidates = vec![
        cand("&a", 0, 1),
        cand("&a", 0, 1), // equal to the first
        cand("&a", 2, 3), // adjacent to [0, 1]; `pa` aliases `a` in it
        cand("&a", 0, 3), // encloses both
        cand("&a", 2, 2), // nested in [2, 3]
        cand("&b", 4, 6), // ends at the last statement
        cand("&b", 6, 6), // nested, also ends there
        cand("&b", 4, 5), // nested, adjacent to [6, 6]
    ];
    let a = analyze(
        &m,
        Options {
            confine_candidates: &candidates,
            ..Options::default()
        },
    );
    let ok: Vec<bool> = a.confines[..candidates.len()]
        .iter()
        .map(|c| c.ok())
        .collect();
    assert_eq!(
        ok,
        [true, true, false, false, true, true, true, true],
        "{:?}",
        a.confines
    );
    let parents = block_parents(&m);
    let chosen = select_outermost(&candidates, &ok, &|x, y| encloses(&parents, x, y));
    assert_eq!(chosen, [0, 1, 4, 5]);
}
