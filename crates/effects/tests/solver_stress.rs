//! Stress and corner-case tests for the effect constraint solver:
//! deep intersection nesting, variable equalities interacting with
//! lowering, incremental conditional cascades, and `LocVars` merging.

use localias_alias::{LocTable, Ty};
use localias_effects::{
    solve, solve_with, Action, ConstraintSystem, Effect, EffectKind, Guard, KindMask, LocVars,
};

fn setup() -> (ConstraintSystem, LocTable) {
    (ConstraintSystem::new(), LocTable::new())
}

#[test]
fn deeply_nested_intersections() {
    // ((((atoms ∩ g1) ∩ g2) ∩ g3) ∩ g4) ⊆ out — the atom survives only if
    // its location is present in every gate.
    let (mut cs, mut locs) = setup();
    let l = locs.fresh(Ty::Int);
    let gates: Vec<_> = (0..4).map(|_| cs.fresh_var()).collect();
    for &g in &gates {
        cs.include(Effect::atom(EffectKind::Mention, l), g);
    }
    let out = cs.fresh_var();
    let mut term = Effect::atom(EffectKind::Write, l);
    for &g in &gates {
        term = Effect::inter(term, Effect::var(g));
    }
    cs.include(term, out);
    let sol = solve(&mut cs, &mut locs);
    assert!(sol.contains(&locs, out, l, KindMask::WRITE));

    // Remove one gate's mention: a second location must not pass.
    let (mut cs2, mut locs2) = setup();
    let l2 = locs2.fresh(Ty::Int);
    let m2 = locs2.fresh(Ty::Int);
    let g = cs2.fresh_var();
    cs2.include(Effect::atom(EffectKind::Mention, l2), g);
    let out2 = cs2.fresh_var();
    cs2.include(
        Effect::inter(
            Effect::union(
                Effect::atom(EffectKind::Write, l2),
                Effect::atom(EffectKind::Write, m2),
            ),
            Effect::var(g),
        ),
        out2,
    );
    let sol2 = solve(&mut cs2, &mut locs2);
    assert!(sol2.contains(&locs2, out2, l2, KindMask::WRITE));
    assert!(!sol2.contains(&locs2, out2, m2, KindMask::WRITE));
}

#[test]
fn long_conditional_cascade_is_incremental() {
    // A chain of N conditionals, each enabling the next: the incremental
    // engine must converge without quadratic blowup in rounds.
    const N: usize = 60;
    let (mut cs, mut locs) = setup();
    let ls: Vec<_> = (0..N + 1).map(|_| locs.fresh(Ty::Int)).collect();
    let v = cs.fresh_var();
    cs.include(Effect::atom(EffectKind::Write, ls[0]), v);
    let flags: Vec<_> = (0..N).map(|_| cs.fresh_flag()).collect();
    for i in 0..N {
        cs.conditional(
            Guard::LocIn {
                loc: ls[i],
                kinds: KindMask::WRITE,
                var: v,
            },
            Action {
                unify: vec![],
                include: vec![(Effect::atom(EffectKind::Write, ls[i + 1]), v)],
                flags: vec![flags[i]],
            },
        );
    }
    let sol = solve(&mut cs, &mut locs);
    assert_eq!(sol.fired, N, "every link in the cascade fires");
    for f in flags {
        assert!(sol.flag(f));
    }
    assert!(sol.contains(&locs, v, ls[N], KindMask::WRITE));
}

#[test]
fn unification_cascade_with_loc_vars() {
    // Conditionals unify a chain of locations; the LocVars registry must
    // keep the per-location ε variables extensionally equal throughout.
    let (mut cs, mut locs) = setup();
    let mut loc_vars = LocVars::new();
    let a = locs.fresh(Ty::Int);
    let b = locs.fresh(Ty::Int);
    let va = loc_vars.var_for(&mut cs, a);
    let vb = loc_vars.var_for(&mut cs, b);
    cs.include(Effect::atom(EffectKind::Mention, a), va);
    cs.include(Effect::atom(EffectKind::Mention, b), vb);

    let trig = cs.fresh_var();
    let tl = locs.fresh(Ty::Int);
    cs.include(Effect::atom(EffectKind::Read, tl), trig);
    let f = cs.fresh_flag();
    cs.conditional(
        Guard::LocIn {
            loc: tl,
            kinds: KindMask::READ,
            var: trig,
        },
        Action {
            unify: vec![(a, b)],
            include: vec![],
            flags: vec![f],
        },
    );
    let sol = solve_with(&mut cs, &mut locs, &mut loc_vars);
    assert!(sol.flag(f));
    assert!(locs.same(a, b));
    // Both ε variables now contain the merged class.
    let merged = locs.find(a);
    assert!(sol.contains(&locs, va, merged, KindMask::MENTION));
    assert!(sol.contains(&locs, vb, merged, KindMask::MENTION));
}

#[test]
fn merge_unlocks_an_intersection_gate() {
    // write(a) waits at a gate that only mentions b; unifying a = b via a
    // conditional must let it through incrementally.
    let (mut cs, mut locs) = setup();
    let a = locs.fresh(Ty::Int);
    let b = locs.fresh(Ty::Int);
    let eff = cs.fresh_var();
    let vis = cs.fresh_var();
    let out = cs.fresh_var();
    cs.include(Effect::atom(EffectKind::Write, a), eff);
    cs.include(Effect::atom(EffectKind::Mention, b), vis);
    cs.include(Effect::inter(Effect::var(eff), Effect::var(vis)), out);

    let f = cs.fresh_flag();
    cs.conditional(
        Guard::LocIn {
            loc: a,
            kinds: KindMask::WRITE,
            var: eff,
        },
        Action {
            unify: vec![(a, b)],
            include: vec![],
            flags: vec![f],
        },
    );
    let sol = solve(&mut cs, &mut locs);
    assert!(sol.flag(f));
    let merged = locs.find(a);
    assert!(
        sol.contains(&locs, out, merged, KindMask::WRITE),
        "the merge must re-check the gate"
    );
}

#[test]
fn checked_disinclusions_see_post_merge_classes() {
    let (mut cs, mut locs) = setup();
    let a = locs.fresh(Ty::Int);
    let b = locs.fresh(Ty::Int);
    let v = cs.fresh_var();
    cs.include(Effect::atom(EffectKind::Write, b), v);
    // The check watches `a`; a conditional later merges a into b's class.
    cs.check_not_in(a, KindMask::ACCESS, v, 42);
    let f = cs.fresh_flag();
    cs.conditional(
        Guard::LocIn {
            loc: b,
            kinds: KindMask::WRITE,
            var: v,
        },
        Action {
            unify: vec![(a, b)],
            include: vec![],
            flags: vec![f],
        },
    );
    let sol = solve(&mut cs, &mut locs);
    assert_eq!(sol.violations().len(), 1);
    assert_eq!(sol.violations()[0].tag, 42);
}

#[test]
fn large_flat_system_solves_fast() {
    // 20k inclusions over 5k variables: worklist propagation should be
    // effectively linear. (A timing assertion would flake; the real check
    // is that it terminates promptly under `cargo test`.)
    let (mut cs, mut locs) = setup();
    let ls: Vec<_> = (0..100).map(|_| locs.fresh(Ty::Int)).collect();
    let vars: Vec<_> = (0..5000).map(|_| cs.fresh_var()).collect();
    for (i, &l) in ls.iter().enumerate() {
        cs.include(Effect::atom(EffectKind::Read, l), vars[i]);
    }
    for i in 100..5000 {
        cs.include(Effect::var(vars[i - 100]), vars[i]);
        cs.include(Effect::var(vars[i - 1]), vars[i]);
    }
    let sol = solve(&mut cs, &mut locs);
    // The last variable reaches every location.
    for &l in &ls {
        assert!(sol.contains(&locs, vars[4999], l, KindMask::READ));
    }
}
