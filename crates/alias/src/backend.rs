//! The freeze step: how a finished typing walk becomes the immutable
//! [`FrozenLocs`] view the flow-sensitive checker consumes.
//!
//! The Steensgaard typing walk ([`crate::steensgaard`]) always runs — it
//! is what assigns every expression its analysis type and what the
//! effect system and `restrict`/`confine` outcomes are computed against.
//! A [`Backend`] decides only how the final location table is
//! *snapshotted* for the checker:
//!
//! * [`Backend::Steensgaard`] captures the table verbatim
//!   ([`crate::loc::LocTable::freeze`]). This is the paper's
//!   configuration and the only one the `localias` pipeline runs.
//! * [`Backend::Andersen`] additionally runs the inclusion-based points-to
//!   analysis ([`crate::andersen`]) and uses its directional flow facts
//!   to *split* unification classes that the checker consults, where the
//!   split is provably invisible to every query the checker can make
//!   (see the refinement rules below). This tests the paper's §8
//!   conjecture — "restrict checking can also be combined with more
//!   precise alias analyses" — without re-deriving the effect system.
//!   It measured flat against the §7 contract, so only the library and
//!   the §8 headroom study reach it (DESIGN.md §11).
//!
//! ## The refinement's soundness argument
//!
//! The checker ([`localias-cqual`]) consults a frozen snapshot through a
//! narrow surface: the pointee classes of *call-argument* expressions
//! (lock intrinsics, `change_type`, and summary retargeting at defined
//! calls), the `(ρ, ρ')` pairs recorded on restrict/confine outcomes,
//! and the bound pointee of `restrict` parameters. The Andersen backend
//! therefore only splits a Steensgaard class when it can give every one
//! of those *consulted keys* a sub-class covering the full set of
//! objects the points-to analysis says the key may target. A class is
//! left untouched (conservatively identical to Steensgaard) when it is
//! tainted, had its multiplicity raised by a failed annotation, contains
//! a pinned outcome location, is reachable from an `extern` signature
//! (extern calls generate no Andersen flow), or any consulted key's
//! points-to set cannot be mapped back onto the class's own keys.
//! Unconsulted keys of a split class become inert singletons carrying
//! their creation multiplicity — by construction the checker never
//! resolves them.

use crate::andersen::{self, Cell};
use crate::frozen::FrozenLocs;
use crate::loc::{Loc, Multiplicity};
use crate::steensgaard::{State, VarKind};
use crate::ty::{locs_of, Ty};
use localias_ast::visit::{walk_expr, walk_module, Visitor};
use localias_ast::{Expr, ExprId, ExprKind, Module};
use localias_obs as obs;

/// Which alias analysis produces the frozen location view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Unification-based may-alias (the paper's configuration).
    Steensgaard,
    /// Inclusion-based refinement of the unification classes.
    Andersen,
}

impl Backend {
    /// Both variants, in index order.
    pub const ALL: [Backend; 2] = [Backend::Steensgaard, Backend::Andersen];

    /// Dense index into [`Backend::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Turns a finished analysis state into the immutable [`FrozenLocs`]
    /// snapshot the checker consumes. `pinned` lists locations that carry
    /// checker-visible outcome state (restrict/confine `(ρ, ρ')` pairs,
    /// restrict-parameter pointees); their classes resolve exactly as the
    /// live table does.
    ///
    /// Every query the checker makes answers consistently with *some*
    /// sound may-alias abstraction of the module, and `find` is idempotent
    /// (`find(find(l)) == find(l)`).
    pub fn freeze(self, m: &Module, state: &mut State, pinned: &[Loc]) -> FrozenLocs {
        match self {
            Backend::Steensgaard => {
                obs::count(obs::Counter::BackendSteensgaardFreezes, 1);
                state.locs.freeze()
            }
            Backend::Andersen => {
                obs::count(obs::Counter::BackendAndersenFreezes, 1);
                refine(m, state, pinned)
            }
        }
    }
}

/// Collects every call-argument expression with a pointer value type:
/// the checker's consultation surface over expressions.
fn consulted_args(m: &Module, state: &State) -> Vec<(ExprId, Loc)> {
    struct Args<'s> {
        state: &'s State,
        out: Vec<(ExprId, Loc)>,
    }
    impl Visitor for Args<'_> {
        fn visit_expr(&mut self, m: &Module, e: &Expr) {
            if let ExprKind::Call(_, args) = e.kind {
                for &a in m.arg_ids(args) {
                    if let Some(Ty::Ref(l)) = self.state.exprs[a.index()].ty {
                        self.out.push((a, l));
                    }
                }
            }
            walk_expr(self, m, e);
        }
    }
    let mut v = Args {
        state,
        out: Vec::new(),
    };
    walk_module(&mut v, m);
    v.out
}

/// Maps an Andersen object cell back onto the Steensgaard keys that
/// stand for the same storage; `None` if no sound mapping exists.
fn cell_keys(m: &Module, state: &State, cell: &Cell) -> Option<Vec<Loc>> {
    fn var_matches<'s>(
        m: &'s Module,
        state: &'s State,
        fun: &'s Option<String>,
        name: &'s str,
    ) -> impl Iterator<Item = &'s crate::steensgaard::VarInfo> {
        state
            .vars
            .iter()
            .filter(move |v| v.fun.map(|f| m.name(f)) == fun.as_deref() && m.name(v.name) == name)
    }
    let keys = match cell {
        Cell::Var(fun, name) => var_matches(m, state, fun, name)
            .filter_map(|v| match v.kind {
                VarKind::Addressed(l) => Some(l),
                VarKind::Register => None,
            })
            .collect::<Vec<Loc>>(),
        Cell::ArrayElems(fun, name) => {
            // Arrays lower to `Ty::Ref(elems)`: the variable's value type
            // points at the collapsed element location.
            var_matches(m, state, fun, name)
                .filter_map(|v| v.ty.pointee())
                .collect()
        }
        Cell::Field(s, f) => m
            .symbol(s)
            .zip(m.symbol(f))
            .and_then(|key| state.fields.get(&key))
            .map(|&l| vec![l])
            .unwrap_or_default(),
        // A `new` site records `Ty::Ref(heap)` on its expression.
        Cell::Heap(id) => match state.exprs[id.index()].ty {
            Some(Ty::Ref(l)) => vec![l],
            _ => Vec::new(),
        },
        Cell::Value(_) => Vec::new(),
    };
    if keys.is_empty() {
        None
    } else {
        Some(keys)
    }
}

fn dsu_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

fn dsu_union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (dsu_find(parent, a), dsu_find(parent, b));
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

/// The Andersen refinement over a finished Steensgaard state.
fn refine(m: &Module, state: &mut State, pinned: &[Loc]) -> FrozenLocs {
    let n = state.locs.len();
    let base = state.locs.freeze();
    let rep_of = |l: Loc| base.find(l).0;

    // -- Which classes must stay exactly as Steensgaard resolved them? --
    let mut keep = vec![false; n];
    for i in 0..n as u32 {
        let k = Loc(i);
        if base.find(k) == k && (base.is_tainted(k) || state.locs.is_raised(k)) {
            keep[i as usize] = true;
        }
    }
    for &p in pinned {
        keep[rep_of(p) as usize] = true;
    }
    // Extern calls generate no Andersen flow, so any storage reachable
    // from an extern signature has unreliable points-to sets.
    let extern_tys: Vec<Ty> = state
        .sigs()
        .filter(|sig| sig.is_extern)
        .flat_map(|sig| state.params(sig).iter().copied().chain([sig.ret]))
        .collect();
    for ty in &extern_tys {
        for l in locs_of(&mut state.locs, ty) {
            keep[rep_of(l) as usize] = true;
        }
    }

    // -- Group each class's consulted keys by points-to overlap. --
    let consulted = consulted_args(m, state);
    let pts = andersen::analyze(m);
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut grouped = vec![false; n];
    for &(id, l) in &consulted {
        let r = rep_of(l);
        if keep[r as usize] {
            continue;
        }
        let Some(cells) = pts.expr_points_to(id) else {
            keep[r as usize] = true;
            continue;
        };
        let mut ok = true;
        let mut reach: Vec<Loc> = Vec::new();
        for cell in cells {
            match cell_keys(m, state, cell) {
                Some(keys) => reach.extend(keys),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            keep[r as usize] = true;
            continue;
        }
        grouped[l.index()] = true;
        for o in reach {
            let ro = rep_of(o);
            if ro != r {
                // Points-to escapes the unification class: the mapping is
                // suspect, leave both classes alone.
                keep[r as usize] = true;
                keep[ro as usize] = true;
                break;
            }
            grouped[o.index()] = true;
            dsu_union(&mut parent, l.0, o.0);
        }
    }

    // -- Assemble the refined snapshot. --
    // Group representative: the smallest member key (deterministic).
    // Group multiplicity: join of the members' creation multiplicities —
    // exact, because raised classes were excluded above.
    let mut group_rep = vec![u32::MAX; n];
    let mut group_mult = vec![Multiplicity::Zero; n];
    for i in 0..n as u32 {
        if grouped[i as usize] && !keep[rep_of(Loc(i)) as usize] {
            let root = dsu_find(&mut parent, i) as usize;
            group_rep[root] = group_rep[root].min(i);
            group_mult[root] = group_mult[root].join(state.locs.created_multiplicity(Loc(i)));
        }
    }
    let mut rep = Vec::with_capacity(n);
    let mut mult = Vec::with_capacity(n);
    let mut tainted = Vec::with_capacity(n);
    let mut first_rep: Vec<u32> = vec![u32::MAX; n];
    let mut split_classes = 0u64;
    for i in 0..n as u32 {
        let k = Loc(i);
        let r = rep_of(k);
        let (out_rep, out_mult, out_taint) = if keep[r as usize] {
            (r, base.multiplicity(k), base.is_tainted(k))
        } else if grouped[i as usize] {
            let root = dsu_find(&mut parent, i) as usize;
            (group_rep[root], group_mult[root], false)
        } else {
            // Inert singleton: the checker never resolves this key.
            (i, state.locs.created_multiplicity(k), false)
        };
        if first_rep[r as usize] == u32::MAX {
            first_rep[r as usize] = out_rep;
        } else if first_rep[r as usize] != out_rep && first_rep[r as usize] != u32::MAX - 1 {
            first_rep[r as usize] = u32::MAX - 1; // marker: class split
            split_classes += 1;
        }
        rep.push(out_rep);
        mult.push(out_mult);
        tainted.push(out_taint);
    }
    if split_classes > 0 {
        obs::count(obs::Counter::BackendSplitClasses, split_classes);
    }
    FrozenLocs::from_parts(rep, mult, tainted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steensgaard::analyze;
    use localias_ast::parse_module;

    fn addressed(m: &Module, state: &State, name: &str) -> Loc {
        state
            .vars
            .iter()
            .find_map(|v| match (m.name(v.name) == name, v.kind) {
                (true, VarKind::Addressed(l)) => Some(l),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no addressed var `{name}`"))
    }

    #[test]
    fn steensgaard_backend_is_identity_capture() {
        let m = parse_module(
            "m",
            r#"
            lock a;
            lock b;
            void f() { lock *x; lock *y; x = &a; y = &b; x = y; spin_lock(x); }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let direct = aliases.state.locs.freeze();
        let via_backend = Backend::Steensgaard.freeze(&m, &mut aliases.state, &[]);
        assert_eq!(direct.len(), via_backend.len());
        for i in 0..direct.len() as u32 {
            let l = Loc(i);
            assert_eq!(direct.find(l), via_backend.find(l));
            assert_eq!(direct.multiplicity(l), via_backend.multiplicity(l));
            assert_eq!(direct.is_tainted(l), via_backend.is_tainted(l));
        }
    }

    #[test]
    fn andersen_splits_disjoint_lock_uses() {
        // Steensgaard merges a and b through the x = y copy in g, so the
        // locks in f weakly update; Andersen's directional flow keeps
        // their targets distinct.
        let m = parse_module(
            "m",
            r#"
            lock a;
            lock b;
            extern void work();
            void f() {
                spin_lock(&a);
                work();
                spin_unlock(&a);
                spin_lock(&b);
                work();
                spin_unlock(&b);
            }
            void g() { lock *x; lock *y; x = &a; y = &b; x = y; }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let la = addressed(&m, &aliases.state, "a");
        let lb = addressed(&m, &aliases.state, "b");
        let steens = aliases.state.locs.freeze();
        assert!(steens.same(la, lb), "unification conflates a and b");
        assert!(!steens.strong_updatable(la), "merged class is Many");

        let refined = Backend::Andersen.freeze(&m, &mut aliases.state, &[]);
        assert!(!refined.same(la, lb), "refinement splits a from b");
        assert!(
            refined.strong_updatable(la),
            "{:?}",
            refined.multiplicity(la)
        );
        assert!(refined.strong_updatable(lb));
        assert_eq!(refined.find(refined.find(la)), refined.find(la));
    }

    #[test]
    fn tainted_classes_are_never_split() {
        let m = parse_module(
            "m",
            r#"
            lock a;
            lock b;
            int sink;
            void f() {
                sink = (int) (&a);
                spin_lock(&a);
                spin_unlock(&a);
                spin_lock(&b);
                spin_unlock(&b);
            }
            void g() { lock *x; lock *y; x = &a; y = &b; x = y; }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let la = addressed(&m, &aliases.state, "a");
        let lb = addressed(&m, &aliases.state, "b");
        let steens = aliases.state.locs.freeze();
        let refined = Backend::Andersen.freeze(&m, &mut aliases.state, &[]);
        assert!(refined.same(la, lb), "tainted class must keep its shape");
        assert_eq!(refined.is_tainted(la), steens.is_tainted(la));
        assert_eq!(refined.multiplicity(la), steens.multiplicity(la));
    }

    #[test]
    fn pinned_classes_are_never_split() {
        let m = parse_module(
            "m",
            r#"
            lock a;
            lock b;
            void f() {
                spin_lock(&a);
                spin_unlock(&a);
                spin_lock(&b);
                spin_unlock(&b);
            }
            void g() { lock *x; lock *y; x = &a; y = &b; x = y; }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let la = addressed(&m, &aliases.state, "a");
        let lb = addressed(&m, &aliases.state, "b");
        let steens = aliases.state.locs.freeze();
        let refined = Backend::Andersen.freeze(&m, &mut aliases.state, &[la]);
        assert!(refined.same(la, lb));
        assert_eq!(refined.find(la), steens.find(la));
        assert_eq!(refined.multiplicity(la), steens.multiplicity(la));
    }

    #[test]
    fn extern_reachable_classes_are_never_split() {
        // `keep` takes a lock pointer: its signature pointee unifies with
        // both argument classes, and extern calls create no Andersen
        // flow, so the class must stay merged.
        let m = parse_module(
            "m",
            r#"
            lock a;
            lock b;
            extern void keep(lock *l);
            void f() {
                keep(&a);
                keep(&b);
                spin_lock(&a);
                spin_unlock(&a);
            }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let la = addressed(&m, &aliases.state, "a");
        let lb = addressed(&m, &aliases.state, "b");
        let refined = Backend::Andersen.freeze(&m, &mut aliases.state, &[]);
        assert!(refined.same(la, lb), "extern-reachable class stays merged");
    }

    #[test]
    fn array_collapse_is_preserved() {
        // A collapsed array element class stays Many under both backends:
        // the consulted key's points-to set is the elems cell itself.
        let m = parse_module(
            "m",
            r#"
            lock locks[8];
            void f(int i) { spin_lock(&locks[i]); spin_unlock(&locks[i]); }
            "#,
        )
        .unwrap();
        let mut aliases = analyze(&m);
        let elems = {
            let v = aliases
                .state
                .vars
                .iter()
                .find(|v| m.name(v.name) == "locks")
                .expect("locks var");
            v.ty.pointee().expect("array lowers to Ref(elems)")
        };
        let refined = Backend::Andersen.freeze(&m, &mut aliases.state, &[]);
        assert_eq!(
            refined.multiplicity(refined.find(elems)),
            Multiplicity::Many
        );
        assert!(!refined.strong_updatable(elems));
    }
}
