//! Property-based tests on the effect constraint solver: random
//! constraint systems, checked against a reference evaluator.
//!
//! * The reported least solution *is* a solution: every inclusion holds.
//! * It is the *least* one, with and without intersections (checked
//!   against a naive fixpoint evaluator).
//! * With conditional constraints, the solver fires the same guards,
//!   unifies the same locations and reaches the same solution as a naive
//!   reference that re-solves after every fired action — on random
//!   systems and on the constraint systems of real corpus modules.
//! * The targeted Figure 5 `CHECK-SAT` query agrees with full
//!   propagation.

use localias::alias::{analyze_with, unify, FxHashMap, Loc, LocTable, Ty};
use localias::ast::Module;
use localias::core::{propose_confines, Gen, Options};
use localias::corpus::{generate, mega_module, DEFAULT_SEED};
use localias::effects::{
    build, reaches, solve, solve_with, Action, ConstraintSystem, EffVar, Effect, EffectKind,
    FlagId, Guard, KindMask, LocVars,
};
use localias_prng::Rng64;
use std::collections::BTreeMap;

const KINDS: [EffectKind; 4] = [
    EffectKind::Read,
    EffectKind::Write,
    EffectKind::Alloc,
    EffectKind::Mention,
];

/// A randomly generated system plus its ingredients.
struct SysSpec {
    cs: ConstraintSystem,
    locs: LocTable,
    vars: Vec<EffVar>,
    loc_ids: Vec<localias::alias::Loc>,
}

fn random_system(seed: u64, n_vars: usize, n_locs: usize, n_cons: usize, inters: bool) -> SysSpec {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut cs = ConstraintSystem::new();
    let mut locs = LocTable::new();
    let vars: Vec<EffVar> = (0..n_vars).map(|_| cs.fresh_var()).collect();
    let loc_ids: Vec<_> = (0..n_locs).map(|_| locs.fresh(Ty::Int)).collect();
    for _ in 0..n_cons {
        let target = vars[rng.gen_range(0..vars.len())];
        let effect = random_effect(&mut rng, &vars, &loc_ids, if inters { 2 } else { 0 });
        cs.include(effect, target);
    }
    SysSpec {
        cs,
        locs,
        vars,
        loc_ids,
    }
}

fn random_effect(
    rng: &mut Rng64,
    vars: &[EffVar],
    locs: &[localias::alias::Loc],
    inter_budget: usize,
) -> Effect {
    match rng.gen_range(0..5u32) {
        0 => Effect::atom(
            KINDS[rng.gen_range(0..4usize)],
            locs[rng.gen_range(0..locs.len())],
        ),
        1 => Effect::var(vars[rng.gen_range(0..vars.len())]),
        2 => Effect::union(
            random_effect(rng, vars, locs, inter_budget),
            random_effect(rng, vars, locs, inter_budget),
        ),
        3 if inter_budget > 0 => Effect::inter(
            random_effect(rng, vars, locs, inter_budget - 1),
            random_effect(rng, vars, locs, inter_budget - 1),
        ),
        _ => Effect::atom(
            KINDS[rng.gen_range(0..4usize)],
            locs[rng.gen_range(0..locs.len())],
        ),
    }
}

/// A variable's reference set: class representative → kinds.
type RefSet = FxHashMap<u32, KindMask>;
type RefSol = FxHashMap<EffVar, RefSet>;

/// Reference evaluation of an effect term under a solution.
fn eval(e: &Effect, sol: &RefSol, locs: &LocTable) -> RefSet {
    match e {
        Effect::Empty => Default::default(),
        Effect::Atom(a) => {
            let mut m = RefSet::default();
            m.insert(locs.find_const(a.loc).0, a.kind.mask());
            m
        }
        Effect::Var(v) => sol.get(v).cloned().unwrap_or_default(),
        Effect::Union(a, b) => {
            let mut m = eval(a, sol, locs);
            for (l, k) in eval(b, sol, locs) {
                let e = m.entry(l).or_default();
                *e = e.union(k);
            }
            m
        }
        Effect::Inter(a, b) => {
            let left = eval(a, sol, locs);
            let right = eval(b, sol, locs);
            left.into_iter()
                .filter(|(l, _)| right.contains_key(l))
                .collect()
        }
        Effect::InterVars(a, b) => {
            let inter = Effect::Inter(Box::new(Effect::Var(*a)), Box::new(Effect::Var(*b)));
            eval(&inter, sol, locs)
        }
    }
}

/// Naive fixpoint reference solver: the least solution, from `∅`.
fn reference_solve(cs: &ConstraintSystem, locs: &LocTable) -> RefSol {
    reference_fixpoint(cs, locs, RefSol::default())
}

/// Chaotic iteration from `start`, which must lie below the least
/// solution (after a location merge, its keys may name non-canonical
/// locations; they are re-keyed first). Each inclusion is evaluated on
/// the effect term itself and re-evaluated whenever a variable it reads
/// grows; the result is the least solution.
fn reference_fixpoint(cs: &ConstraintSystem, locs: &LocTable, start: RefSol) -> RefSol {
    let mut sol: RefSol = Default::default();
    for (v, set) in start {
        let entry = sol.entry(v).or_default();
        for (l, k) in set {
            let cur = entry.entry(locs.find_const(Loc(l)).0).or_default();
            *cur = cur.union(k);
        }
    }
    let mut readers: FxHashMap<EffVar, Vec<usize>> = Default::default();
    for (i, (l, _)) in cs.includes.iter().enumerate() {
        for v in vars_read(l) {
            readers.entry(v).or_default().push(i);
        }
    }
    let mut queue: std::collections::VecDeque<usize> = (0..cs.includes.len()).collect();
    let mut queued = vec![true; cs.includes.len()];
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        let (l, v) = &cs.includes[i];
        let add = eval(l, &sol, locs);
        let target = *v;
        let entry = sol.entry(target).or_default();
        let mut changed = false;
        for (loc, k) in add {
            let cur = entry.entry(loc).or_default();
            let new = cur.union(k);
            if new != *cur {
                *cur = new;
                changed = true;
            }
        }
        if changed {
            for &j in readers.get(&target).into_iter().flatten() {
                if !queued[j] {
                    queued[j] = true;
                    queue.push_back(j);
                }
            }
        }
    }
    sol
}

/// The variables an effect term reads.
fn vars_read(e: &Effect) -> Vec<EffVar> {
    match e {
        Effect::Empty | Effect::Atom(_) => Vec::new(),
        Effect::Var(v) => vec![*v],
        Effect::InterVars(a, b) => vec![*a, *b],
        Effect::Union(a, b) | Effect::Inter(a, b) => {
            let mut vs = vars_read(a);
            vs.extend(vars_read(b));
            vs
        }
    }
}

#[test]
fn solution_satisfies_all_inclusions() {
    let mut outer = Rng64::seed_from_u64(0x501);
    for _ in 0..64 {
        let seed = outer.next_u64();
        let SysSpec {
            mut cs, mut locs, ..
        } = random_system(seed, 6, 5, 14, true);
        let sol = solve(&mut cs, &mut locs);
        // Rebuild a reference-style view of the solver's answer.
        let mut view: RefSol = Default::default();
        for raw in 0..cs.var_count() as u32 {
            let v = EffVar(raw);
            let entry = view.entry(v).or_default();
            for (l, k) in sol.set(v) {
                entry.insert(l.0, k);
            }
        }
        for (l, v) in cs.includes.clone() {
            let lhs = eval(&l, &view, &locs);
            let rhs = view.get(&v).cloned().unwrap_or_default();
            for (loc, k) in lhs {
                let have = rhs.get(&loc).copied().unwrap_or_default();
                assert_eq!(
                    have.union(k),
                    have,
                    "inclusion violated at {:?}: {} ⊄ solution",
                    loc,
                    k
                );
            }
        }
    }
}

/// Compares the solver with the naive fixpoint on 64 random systems.
fn assert_least(seed: u64, inters: bool) {
    let mut outer = Rng64::seed_from_u64(seed);
    for _ in 0..64 {
        let seed = outer.next_u64();
        let SysSpec {
            mut cs,
            mut locs,
            vars,
            loc_ids,
        } = random_system(seed, 6, 5, 12, inters);
        let reference = reference_solve(&cs, &locs);
        let sol = solve(&mut cs, &mut locs);
        for &v in &vars {
            let got = sol.set(v);
            let want = reference.get(&v).cloned().unwrap_or_default();
            // Same total mask weight both ways = equality of finite maps.
            let got_map: RefSet = got.iter().map(|&(l, k)| (l.0, k)).collect();
            assert_eq!(&got_map, &want, "var {:?}", v);
        }
        // And every membership query agrees.
        for &v in &vars {
            for &l in &loc_ids {
                for kinds in [KindMask::READ, KindMask::ACCESS, KindMask::MENTION] {
                    let want = reference
                        .get(&v)
                        .and_then(|m| m.get(&locs.find_const(l).0))
                        .is_some_and(|k| k.overlaps(kinds));
                    assert_eq!(sol.contains(&locs, v, l, kinds), want);
                }
            }
        }
    }
}

#[test]
fn solution_is_least_on_intersection_free_systems() {
    assert_least(0x502, false);
}

#[test]
fn solution_is_least_with_intersections() {
    assert_least(0x504, true);
}

#[test]
fn targeted_reaches_agrees_with_full_solution() {
    let mut outer = Rng64::seed_from_u64(0x503);
    for _ in 0..64 {
        let seed = outer.next_u64();
        let SysSpec {
            mut cs,
            mut locs,
            vars,
            loc_ids,
        } = random_system(seed, 5, 4, 12, true);
        let graph = build(&cs);
        let sol = {
            // solve() rebuilds its own graph; run it on a clone-shaped
            // system by re-solving the same constraints.
            let mut cs2 = ConstraintSystem::new();
            std::mem::swap(&mut cs2, &mut cs);
            let s = solve(&mut cs2, &mut locs);
            std::mem::swap(&mut cs2, &mut cs);
            s
        };
        for &v in &vars {
            for &l in &loc_ids {
                for kinds in [KindMask::READ, KindMask::WRITE, KindMask::ALL] {
                    assert_eq!(
                        reaches(&graph, &mut locs, l, kinds, v),
                        sol.contains(&locs, v, l, kinds),
                        "loc {:?} kinds {} var {:?}",
                        l,
                        kinds,
                        v
                    );
                }
            }
        }
    }
}

/// What a conditional solve decides, keyed so that two runs over equal
/// inputs compare equal: locations by the smallest member of their class.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Each location's class key.
    partition: Vec<u32>,
    /// Every flag's value.
    flags: Vec<bool>,
    /// `(tag, class, kinds)` per violated check, in check order.
    violations: Vec<(u32, u32, KindMask)>,
    /// Every variable's solved set, by class.
    sets: Vec<BTreeMap<u32, KindMask>>,
    fired: usize,
    rounds: usize,
}

/// Each location's smallest class member.
fn class_keys(locs: &LocTable) -> Vec<u32> {
    let mut min_of = vec![u32::MAX; locs.len()];
    for i in 0..locs.len() as u32 {
        let r = locs.find_const(Loc(i)).index();
        min_of[r] = min_of[r].min(i);
    }
    (0..locs.len() as u32)
        .map(|i| min_of[locs.find_const(Loc(i)).index()])
        .collect()
}

/// Runs the solver under test.
fn solver_outcome(cs: &mut ConstraintSystem, locs: &mut LocTable, lv: &mut LocVars) -> Outcome {
    let sol = solve_with(cs, locs, lv);
    let key = class_keys(locs);
    Outcome {
        partition: key.clone(),
        flags: (0..cs.flag_count()).map(|f| sol.flag(FlagId(f))).collect(),
        violations: sol
            .violations()
            .iter()
            .map(|v| (v.tag, key[v.loc.index()], v.found))
            .collect(),
        sets: (0..cs.var_count() as u32)
            .map(|v| {
                sol.set_iter(EffVar(v))
                    .map(|(l, k)| (key[l.index()], k))
                    .collect()
            })
            .collect(),
        fired: sol.fired,
        rounds: sol.rounds,
    }
}

fn reference_guard(g: &Guard, sol: &RefSol, locs: &LocTable) -> bool {
    let set = |v: EffVar| sol.get(&v);
    match g {
        Guard::LocIn { loc, kinds, var } => set(*var)
            .and_then(|m| m.get(&locs.find_const(*loc).0))
            .is_some_and(|k| k.overlaps(*kinds)),
        Guard::AnyKind { var, kinds } => {
            set(*var).is_some_and(|m| m.values().any(|k| k.overlaps(*kinds)))
        }
        Guard::Overlap {
            left,
            left_kinds,
            right,
            right_kinds,
        } => match (set(*left), set(*right)) {
            (Some(a), Some(b)) => a.iter().any(|(l, k)| {
                k.overlaps(*left_kinds) && b.get(l).is_some_and(|k| k.overlaps(*right_kinds))
            }),
            _ => false,
        },
    }
}

/// The reference conditional fixpoint: guards fire in index order, round
/// after round; each fired action unifies its locations, adds its
/// inclusions and the `LocVars::merge` edges of every merge, and the
/// least solution is recomputed by naive iteration before the next guard.
fn reference_outcome(cs: &mut ConstraintSystem, locs: &mut LocTable, lv: &mut LocVars) -> Outcome {
    let _ = locs.take_merges();
    let mut sol = reference_solve(cs, locs);
    let mut fired = vec![false; cs.conditionals.len()];
    let mut flags = vec![false; cs.flag_count() as usize];
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut any = false;
        // Indexed loop: firing mutates `cs.includes`.
        #[allow(clippy::needless_range_loop)]
        for i in 0..cs.conditionals.len() {
            if fired[i] || !reference_guard(&cs.conditionals[i].guard, &sol, locs) {
                continue;
            }
            fired[i] = true;
            any = true;
            let Action {
                unify: pairs,
                include,
                flags: set,
            } = cs.action(i);
            for (a, b) in pairs {
                unify(locs, &Ty::Ref(a), &Ty::Ref(b), &mut Vec::new());
            }
            cs.includes.extend(include);
            for f in set {
                flags[f.0 as usize] = true;
            }
            for (winner, loser) in locs.take_merges() {
                cs.includes.extend(lv.merge(winner, loser));
            }
            sol = reference_fixpoint(cs, locs, sol);
        }
        if !any {
            break;
        }
    }
    let key = class_keys(locs);
    let mut violations = Vec::new();
    for check in &cs.not_ins {
        let l = locs.find_const(check.loc);
        let found = sol
            .get(&check.var)
            .and_then(|m| m.get(&l.0))
            .map_or(KindMask::EMPTY, |k| k.inter(check.kinds));
        if !found.is_empty() {
            violations.push((check.tag, key[l.index()], found));
        }
    }
    Outcome {
        partition: key.clone(),
        flags,
        violations,
        sets: (0..cs.var_count() as u32)
            .map(|v| {
                sol.get(&EffVar(v))
                    .into_iter()
                    .flatten()
                    .map(|(&l, &k)| (key[l as usize], k))
                    .collect()
            })
            .collect(),
        fired: fired.iter().filter(|f| **f).count(),
        rounds,
    }
}

/// A random system with intersections, `ε_ρ` variables, checked
/// disinclusions and conditionals of every guard shape whose actions
/// unify locations, add inclusions and set flags.
fn random_conditional_system(seed: u64) -> (ConstraintSystem, LocTable, LocVars) {
    let SysSpec {
        mut cs,
        mut locs,
        mut vars,
        loc_ids,
    } = random_system(seed, 6, 6, 12, true);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xc0d);
    // Pointer contents make one unification cascade into several merges.
    for i in 0..loc_ids.len() {
        if rng.gen_range(0..3u32) == 0 {
            let to = loc_ids[rng.gen_range(0..loc_ids.len())];
            locs.set_content(loc_ids[i], Ty::Ref(to));
        }
    }
    let mut lv = LocVars::new();
    for &l in loc_ids.iter().take(4) {
        let v = lv.var_for(&mut cs, l);
        cs.include(Effect::atom(EffectKind::Mention, l), v);
        vars.push(v);
    }
    let pick_kinds = |rng: &mut Rng64| KindMask(rng.gen_range(1..16u32) as u8);
    for _ in 0..8 {
        let target = vars[rng.gen_range(0..vars.len())];
        let effect = random_effect(&mut rng, &vars, &loc_ids, 1);
        cs.include(effect, target);
    }
    for tag in 0..4 {
        let loc = loc_ids[rng.gen_range(0..loc_ids.len())];
        let kinds = pick_kinds(&mut rng);
        cs.check_not_in(loc, kinds, vars[rng.gen_range(0..vars.len())], tag);
    }
    for _ in 0..6 {
        let var = vars[rng.gen_range(0..vars.len())];
        let kinds = pick_kinds(&mut rng);
        let guard = match rng.gen_range(0..3u32) {
            0 => Guard::LocIn {
                loc: loc_ids[rng.gen_range(0..loc_ids.len())],
                kinds,
                var,
            },
            1 => Guard::AnyKind { var, kinds },
            _ => Guard::Overlap {
                left: var,
                left_kinds: kinds,
                right: vars[rng.gen_range(0..vars.len())],
                right_kinds: pick_kinds(&mut rng),
            },
        };
        let mut action = Action {
            flags: vec![cs.fresh_flag()],
            ..Action::default()
        };
        if rng.gen_range(0..2u32) == 0 {
            let a = loc_ids[rng.gen_range(0..loc_ids.len())];
            let b = loc_ids[rng.gen_range(0..loc_ids.len())];
            action.unify.push((a, b));
        }
        if rng.gen_range(0..2u32) == 0 {
            let effect = random_effect(&mut rng, &vars, &loc_ids, 1);
            action
                .include
                .push((effect, vars[rng.gen_range(0..vars.len())]));
        }
        cs.conditional(guard, action);
    }
    (cs, locs, lv)
}

#[test]
fn conditional_fixpoint_matches_reference() {
    let mut outer = Rng64::seed_from_u64(0x505);
    let mut fired = 0;
    for _ in 0..256 {
        let seed = outer.next_u64();
        let (mut cs, mut locs, mut lv) = random_conditional_system(seed);
        let got = solver_outcome(&mut cs, &mut locs, &mut lv);
        let (mut cs, mut locs, mut lv) = random_conditional_system(seed);
        let want = reference_outcome(&mut cs, &mut locs, &mut lv);
        assert_eq!(got, want, "seed {seed:#x}");
        fired += got.fired;
    }
    assert!(fired > 256, "the systems exercise too few conditionals");
}

/// The pre-solve constraint system of one analysis of `m`, as
/// `localias_core::analyze` hands it to the solver.
fn module_system(m: &Module, opts: Options) -> (ConstraintSystem, LocTable, LocVars) {
    let (mut state, mut gen) = analyze_with(m, Gen::new(opts));
    gen.finalize(&mut state);
    (gen.cs, state.locs, gen.loc_vars)
}

/// Both analyses the §7 pipeline runs on `m`: plain checking, and
/// confine inference over the heuristic's candidates.
fn assert_module_matches_reference(name: &str, m: &Module) {
    let candidates = propose_confines(m);
    let both = || {
        [
            Options::default(),
            Options {
                confine_candidates: &candidates,
                ..Options::default()
            },
        ]
    };
    for (analysis, (a, b)) in both().into_iter().zip(both()).enumerate() {
        let (mut cs, mut locs, mut lv) = module_system(m, a);
        let got = solver_outcome(&mut cs, &mut locs, &mut lv);
        let (mut cs, mut locs, mut lv) = module_system(m, b);
        let want = reference_outcome(&mut cs, &mut locs, &mut lv);
        assert_eq!(got, want, "{name} analysis {analysis}");
    }
}

#[test]
fn corpus_systems_match_reference() {
    for g in generate(DEFAULT_SEED).iter().take(60) {
        assert_module_matches_reference(&g.name, &g.parse());
    }
    let mega = mega_module(DEFAULT_SEED, 40);
    assert_module_matches_reference(&mega.name, &mega.parse());
}
