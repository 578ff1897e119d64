//! Analysis types `τ ::= int | ref ρ(τ) | ...` and unification.
//!
//! These are the paper's types with the pointee type stored *in the
//! location table* rather than inline: a pointer type is `Ref(ρ)` and the
//! pointee type is `LocTable::content(ρ)`. This makes unification of
//! recursive structures terminate naturally (union the locations first,
//! then unify contents only if the classes were actually distinct) and
//! gives us the paper's memoized `locs(τ)` for free — `locs(Ref(ρ))` is
//! `{ρ} ∪ locs(content(ρ))`, a reachability query over location classes.

use crate::loc::{Loc, LocTable};
use localias_ast::{Names, Symbol};
use std::collections::HashSet;
use std::fmt;

/// An analysis type: `Copy`, 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The integer type.
    Int,
    /// A lock value (the state the flow-sensitive checker tracks lives at
    /// the *location holding* the lock, not in the type).
    Lock,
    /// The unit/void type (function returns only).
    Void,
    /// A struct value, by its name in the module's name table; field
    /// locations are tracked field-based via the `(struct, field) →
    /// location` table in [`crate::steensgaard::State`].
    Struct(Symbol),
    /// A pointer to abstract location `ρ`.
    Ref(Loc),
    /// A value whose type the analysis lost track of (e.g. through an
    /// incompatible cast). Unifies with anything and taints involved
    /// locations.
    Unknown,
}

impl Ty {
    /// Returns the pointee location if this is a pointer type.
    pub fn pointee(&self) -> Option<Loc> {
        match self {
            Ty::Ref(l) => Some(*l),
            _ => None,
        }
    }

    /// The type printed, with a struct's name resolved in `names`.
    pub fn show<'a>(&self, names: &'a Names) -> impl fmt::Display + 'a {
        ShowTy(*self, names)
    }
}

struct ShowTy<'a>(Ty, &'a Names);

impl fmt::Display for ShowTy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Ty::Int => write!(f, "int"),
            Ty::Lock => write!(f, "lock"),
            Ty::Void => write!(f, "void"),
            Ty::Struct(s) => write!(f, "struct {}", self.1.get(s)),
            Ty::Ref(l) => write!(f, "ref {l}"),
            Ty::Unknown => write!(f, "?"),
        }
    }
}

/// A record of a type mismatch discovered during unification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMismatch {
    /// The two irreconcilable types, printed.
    pub left: String,
    /// See `left`.
    pub right: String,
}

impl TypeMismatch {
    /// The mismatch of types `a` and `b`, printed with `names`.
    pub fn between(names: &Names, a: &Ty, b: &Ty) -> TypeMismatch {
        TypeMismatch {
            left: a.show(names).to_string(),
            right: b.show(names).to_string(),
        }
    }
}

impl fmt::Display for TypeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type mismatch: {} vs {}", self.left, self.right)
    }
}

/// Unifies `a` and `b` in `table`, returning the merged type.
///
/// Implements the paper's Figure 4a:
///
/// * `ref ρ1(τ1) = ref ρ2(τ2)` unions `ρ1, ρ2` and unifies `τ1, τ2`;
/// * base types must match exactly;
/// * [`Ty::Unknown`] absorbs anything.
///
/// On a genuine mismatch the involved pointer locations are **tainted**
/// (they can no longer be restricted/confined), the two types are passed
/// to `mismatch`, and `Unknown` is returned — the analysis stays total
/// and conservative rather than failing.
pub fn unify(table: &mut LocTable, a: &Ty, b: &Ty, mismatch: &mut dyn FnMut(&Ty, &Ty)) -> Ty {
    match (*a, *b) {
        (Ty::Unknown, other) | (other, Ty::Unknown) => {
            // Losing type information taints any pointer structure it
            // touches.
            if let Ty::Ref(l) = other {
                table.taint(l);
            }
            other
        }
        (Ty::Int, Ty::Int) => Ty::Int,
        (Ty::Lock, Ty::Lock) => Ty::Lock,
        (Ty::Void, Ty::Void) => Ty::Void,
        (Ty::Struct(s1), Ty::Struct(s2)) if s1 == s2 => Ty::Struct(s1),
        (Ty::Ref(l1), Ty::Ref(l2)) => {
            let r1 = table.find(l1);
            let r2 = table.find(l2);
            if r1 == r2 {
                return Ty::Ref(r1);
            }
            // Union first so recursive structures terminate, then unify
            // the two old contents into the winner.
            let c1 = table.content(r1);
            let c2 = table.content(r2);
            let (winner, _) = table.union_raw(r1, r2).expect("distinct classes");
            let merged = unify(table, &c1, &c2, mismatch);
            table.set_content(winner, merged);
            Ty::Ref(winner)
        }
        (x, y) => {
            mismatch(&x, &y);
            for t in [x, y] {
                if let Ty::Ref(l) = t {
                    table.taint(l);
                }
            }
            Ty::Unknown
        }
    }
}

/// Computes `locs(τ)`: every location reachable from `τ` through content
/// types, canonicalized.
///
/// The constraint-generation pass avoids calling this in inner loops (it
/// maintains the paper's memoizing `ε_τ` variables instead); it is used
/// for small queries and in tests as the ground truth the memoization must
/// agree with.
pub fn locs_of(table: &mut LocTable, ty: &Ty) -> HashSet<Loc> {
    let mut out = HashSet::new();
    let mut stack = vec![*ty];
    while let Some(t) = stack.pop() {
        if let Ty::Ref(l) = t {
            let r = table.find(l);
            if out.insert(r) {
                stack.push(table.content(r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unifies, collecting the mismatched pairs into `errs`.
    fn unify_into(t: &mut LocTable, a: &Ty, b: &Ty, errs: &mut Vec<(Ty, Ty)>) -> Ty {
        unify(t, a, b, &mut |x, y| errs.push((*x, *y)))
    }

    #[test]
    fn unify_base_types() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        assert_eq!(unify_into(&mut t, &Ty::Int, &Ty::Int, &mut errs), Ty::Int);
        assert_eq!(
            unify_into(&mut t, &Ty::Lock, &Ty::Lock, &mut errs),
            Ty::Lock
        );
        assert!(errs.is_empty());
    }

    #[test]
    fn unify_refs_unions_locations() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        let l1 = t.fresh(Ty::Int);
        let l2 = t.fresh(Ty::Int);
        let merged = unify_into(&mut t, &Ty::Ref(l1), &Ty::Ref(l2), &mut errs);
        assert!(t.same(l1, l2));
        assert_eq!(merged, Ty::Ref(t.find(l1)));
        assert!(errs.is_empty());
    }

    #[test]
    fn unify_refs_recursively_unifies_contents() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        // l1: ref -> a (int), l2: ref -> b (int); unify(ref l1, ref l2)
        // must also merge a and b.
        let a = t.fresh(Ty::Int);
        let b = t.fresh(Ty::Int);
        let l1 = t.fresh(Ty::Ref(a));
        let l2 = t.fresh(Ty::Ref(b));
        unify_into(&mut t, &Ty::Ref(l1), &Ty::Ref(l2), &mut errs);
        assert!(t.same(a, b), "pointee locations must merge");
        assert!(errs.is_empty());
    }

    #[test]
    fn cyclic_unification_terminates() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        // Two self-referential locations: content(l) = Ref(l).
        let l1 = t.fresh(Ty::Unknown);
        t.set_content(l1, Ty::Ref(l1));
        let l2 = t.fresh(Ty::Unknown);
        t.set_content(l2, Ty::Ref(l2));
        unify_into(&mut t, &Ty::Ref(l1), &Ty::Ref(l2), &mut errs);
        assert!(t.same(l1, l2));
    }

    #[test]
    fn mismatch_taints_and_records() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        let l = t.fresh(Ty::Int);
        let out = unify_into(&mut t, &Ty::Ref(l), &Ty::Int, &mut errs);
        assert_eq!(out, Ty::Unknown);
        assert_eq!(errs.len(), 1);
        assert!(t.is_tainted(l));
    }

    #[test]
    fn unknown_absorbs_and_taints() {
        let mut t = LocTable::new();
        let mut errs = Vec::new();
        let l = t.fresh(Ty::Int);
        let out = unify_into(&mut t, &Ty::Unknown, &Ty::Ref(l), &mut errs);
        assert_eq!(out, Ty::Ref(l));
        assert!(t.is_tainted(l), "flowing through Unknown taints");
        assert!(errs.is_empty());
    }

    #[test]
    fn locs_of_reaches_through_contents() {
        let mut t = LocTable::new();
        let a = t.fresh(Ty::Int);
        let p = t.fresh(Ty::Ref(a));
        let locs = locs_of(&mut t, &Ty::Ref(p));
        assert_eq!(locs.len(), 2);
        assert!(locs.contains(&t.find(a)));
        assert!(locs.contains(&t.find(p)));
    }

    #[test]
    fn locs_of_handles_cycles() {
        let mut t = LocTable::new();
        let l = t.fresh(Ty::Unknown);
        t.set_content(l, Ty::Ref(l));
        let locs = locs_of(&mut t, &Ty::Ref(l));
        assert_eq!(locs.len(), 1);
    }
}
