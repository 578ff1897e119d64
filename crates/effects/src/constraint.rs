//! The constraint system: inclusions, variable equalities, checked
//! disinclusions, and the conditional constraints of §5/§6.

use crate::effect::{EffVar, Effect, KindMask};
use localias_alias::{Loc, UnionFind};
use localias_obs as obs;
use std::fmt;

/// A boolean flag set by a fired conditional constraint.
///
/// `localias-core` allocates one per inference candidate ("was this
/// `let-or-restrict` demoted to `let`?", "was this `confine?` rejected?")
/// and reads it from the [`crate::solve::Solution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlagId(pub u32);

/// A checked disinclusion `ρ ∉_κ ε` — the paper's `ρ ∉ L` side conditions
/// of (Restrict), restricted to the kinds in `kinds`.
///
/// Unlike conditional constraints these do not alter the solution; they
/// are *verified* against the least solution after solving, and each
/// violation is reported to the caller tagged with `tag`.
#[derive(Debug, Clone)]
pub struct NotIn {
    /// The location that must stay out.
    pub loc: Loc,
    /// Which kinds count as membership.
    pub kinds: KindMask,
    /// The effect variable whose solution is inspected.
    pub var: EffVar,
    /// Caller tag identifying which annotation/check this belongs to.
    pub tag: u32,
}

/// The antecedent of a conditional constraint.
#[derive(Debug, Clone)]
pub enum Guard {
    /// Fires when `ρ` is in `var`'s solution under one of `kinds`.
    LocIn {
        /// The guarded location.
        loc: Loc,
        /// Kinds that count.
        kinds: KindMask,
        /// The observed variable.
        var: EffVar,
    },
    /// Fires when *any* atom of one of `kinds` is in `var`'s solution.
    AnyKind {
        /// The observed variable.
        var: EffVar,
        /// Kinds that count.
        kinds: KindMask,
    },
    /// Fires when some location `ρ` appears in `left` under `left_kinds`
    /// **and** in `right` under `right_kinds` — the shape of §6.1's
    /// referential-transparency conditions (`∃ρ''. read(ρ'') ∈ L1 ∧
    /// write(ρ'') ∈ L2`).
    Overlap {
        /// First observed variable.
        left: EffVar,
        /// Kinds counted on the left.
        left_kinds: KindMask,
        /// Second observed variable.
        right: EffVar,
        /// Kinds counted on the right.
        right_kinds: KindMask,
    },
}

/// The consequent of a conditional constraint.
#[derive(Debug, Clone, Default)]
pub struct Action {
    /// Location pairs to unify (the `⇒ ρ = ρ'` demotions).
    pub unify: Vec<(Loc, Loc)>,
    /// Inclusions to add (`⇒ L ⊆ ε`).
    pub include: Vec<(Effect, EffVar)>,
    /// Flags to set.
    pub flags: Vec<FlagId>,
}

/// A conditional constraint `guard ⇒ action`. One-shot: once fired it
/// stays fired.
#[derive(Debug, Clone)]
pub struct Conditional {
    /// The antecedent.
    pub guard: Guard,
    /// The consequent.
    pub action: Action,
}

/// A system of effect constraints under construction.
///
/// The expected life cycle: `localias-core` generates constraints during
/// its typing walk, then hands the system together with the
/// [`localias_alias::LocTable`] to [`crate::solve::solve`].
#[derive(Debug, Default)]
pub struct ConstraintSystem {
    evars: UnionFind,
    /// Unconditional inclusions `L ⊆ ε`.
    pub includes: Vec<(Effect, EffVar)>,
    /// Checked disinclusions.
    pub not_ins: Vec<NotIn>,
    /// Conditional constraints.
    pub conditionals: Vec<Conditional>,
    flag_count: u32,
}

impl ConstraintSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        ConstraintSystem::default()
    }

    /// Allocates a fresh effect variable.
    pub fn fresh_var(&mut self) -> EffVar {
        obs::count(obs::Counter::EffectVars, 1);
        EffVar(self.evars.push())
    }

    /// Allocates a fresh flag (initially unset).
    pub fn fresh_flag(&mut self) -> FlagId {
        let f = FlagId(self.flag_count);
        self.flag_count += 1;
        f
    }

    /// Number of flags allocated.
    pub fn flag_count(&self) -> u32 {
        self.flag_count
    }

    /// Number of effect-variable keys allocated.
    pub fn var_count(&self) -> usize {
        self.evars.len()
    }

    /// Adds the inclusion `L ⊆ ε`.
    pub fn include(&mut self, l: Effect, var: EffVar) {
        if matches!(l, Effect::Empty) {
            return;
        }
        obs::count(obs::Counter::ConstraintEdges, 1);
        self.includes.push((l, var));
    }

    /// Records the equality `ε1 = ε2` (from the Figure 4a type-equality
    /// resolution): the variables become one.
    pub fn equate(&mut self, a: EffVar, b: EffVar) {
        obs::count(obs::Counter::ConstraintEdges, 1);
        self.evars.union(a.0, b.0);
    }

    /// Canonical representative of `v`.
    pub fn find(&mut self, v: EffVar) -> EffVar {
        EffVar(self.evars.find(v.0))
    }

    /// Canonical representative without path compression.
    pub fn find_const(&self, v: EffVar) -> EffVar {
        EffVar(self.evars.find_const(v.0))
    }

    /// Adds a checked disinclusion `ρ ∉_κ ε` tagged `tag`.
    pub fn check_not_in(&mut self, loc: Loc, kinds: KindMask, var: EffVar, tag: u32) {
        self.not_ins.push(NotIn {
            loc,
            kinds,
            var,
            tag,
        });
    }

    /// Adds a conditional constraint.
    pub fn conditional(&mut self, guard: Guard, action: Action) {
        self.conditionals.push(Conditional { guard, action });
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "constraint system: {} vars, {} inclusions, {} checks, {} conditionals",
            self.var_count(),
            self.includes.len(),
            self.not_ins.len(),
            self.conditionals.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::EffectKind;

    #[test]
    fn vars_and_flags_allocate() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        assert_ne!(a, b);
        let f1 = cs.fresh_flag();
        let f2 = cs.fresh_flag();
        assert_ne!(f1, f2);
        assert_eq!(cs.flag_count(), 2);
    }

    #[test]
    fn equate_merges() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        let b = cs.fresh_var();
        cs.equate(a, b);
        assert_eq!(cs.find(a), cs.find(b));
    }

    #[test]
    fn empty_inclusions_are_dropped() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        cs.include(Effect::Empty, a);
        assert!(cs.includes.is_empty());
        cs.include(Effect::atom(EffectKind::Read, Loc(0)), a);
        assert_eq!(cs.includes.len(), 1);
    }
}
