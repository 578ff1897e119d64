//! The constraint system: inclusions, checked disinclusions, and the
//! conditional constraints of §5/§6.

use crate::effect::{EffVar, Effect, KindMask};
use localias_alias::Loc;
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

/// The consequent of a conditional constraint, as an owned value: what
/// [`ConstraintSystem::conditional`] takes and [`ConstraintSystem::action`]
/// returns. The system itself keeps every action's lists in shared
/// arrays.
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
/// stays fired. Its action is three runs in the system's shared arrays;
/// read it with [`ConstraintSystem::action`].
#[derive(Debug, Clone)]
pub struct Conditional {
    /// The antecedent.
    pub guard: Guard,
    pub(crate) unify: (u32, u32),
    pub(crate) include: (u32, u32),
    pub(crate) flags: (u32, u32),
}

/// A system of effect constraints under construction.
///
/// The expected life cycle: `localias-core` generates constraints during
/// its typing walk, then hands the system together with the
/// [`localias_alias::LocTable`] to [`crate::solve::solve`].
///
/// No two effect variables are ever equated: the analysed types carry no
/// effect variables, so Figure 4a's type-equality resolution never
/// relates two of them, and every [`EffVar`] is its own representative.
#[derive(Debug, Default)]
pub struct ConstraintSystem {
    var_count: u32,
    /// Unconditional inclusions `L ⊆ ε`.
    pub includes: Vec<(Effect, EffVar)>,
    /// Checked disinclusions.
    pub not_ins: Vec<NotIn>,
    /// Conditional constraints.
    pub conditionals: Vec<Conditional>,
    /// Every conditional's action lists, back to back.
    pub(crate) action_unify: Vec<(Loc, Loc)>,
    pub(crate) action_include: Vec<(Effect, EffVar)>,
    pub(crate) action_flags: Vec<FlagId>,
    flag_count: u32,
}

/// Appends `items` to `to` and returns the run they occupy.
fn append<T>(to: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> (u32, u32) {
    let start = to.len();
    to.extend(items);
    let run = |n: usize| u32::try_from(n).expect("action runs fit in u32");
    (run(start), run(to.len()))
}

fn run<T>(items: &[T], (start, end): (u32, u32)) -> &[T] {
    &items[start as usize..end as usize]
}

impl ConstraintSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        ConstraintSystem::default()
    }

    /// Allocates a fresh effect variable.
    pub fn fresh_var(&mut self) -> EffVar {
        obs::count(obs::Counter::EffectVars, 1);
        let v = EffVar(self.var_count);
        self.var_count += 1;
        v
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

    /// Number of effect variables allocated.
    pub fn var_count(&self) -> usize {
        self.var_count as usize
    }

    /// Adds the inclusion `L ⊆ ε`.
    pub fn include(&mut self, l: Effect, var: EffVar) {
        if matches!(l, Effect::Empty) {
            return;
        }
        obs::count(obs::Counter::ConstraintEdges, 1);
        self.includes.push((l, var));
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

    /// Makes room for `n` more conditionals, each with one unification,
    /// one inclusion and two flags.
    pub fn reserve_conditionals(&mut self, n: usize) {
        self.conditionals.reserve(n);
        self.action_unify.reserve(n);
        self.action_include.reserve(n);
        self.action_flags.reserve(2 * n);
    }

    /// Adds a conditional constraint.
    pub fn conditional(&mut self, guard: Guard, action: Action) {
        self.conditional_parts(guard, action.unify, action.include, action.flags);
    }

    /// Adds a conditional constraint whose action unifies `unify`, adds
    /// the inclusions `include` and sets `flags`. Unlike
    /// [`ConstraintSystem::conditional`] it takes the lists as any
    /// iterators, so a caller passing arrays allocates nothing.
    pub fn conditional_parts(
        &mut self,
        guard: Guard,
        unify: impl IntoIterator<Item = (Loc, Loc)>,
        include: impl IntoIterator<Item = (Effect, EffVar)>,
        flags: impl IntoIterator<Item = FlagId>,
    ) {
        let unify = append(&mut self.action_unify, unify);
        let include = append(&mut self.action_include, include);
        let flags = append(&mut self.action_flags, flags);
        self.conditionals.push(Conditional {
            guard,
            unify,
            include,
            flags,
        });
    }

    /// The locations conditional `i`'s action unifies.
    pub(crate) fn action_unify(&self, i: usize) -> &[(Loc, Loc)] {
        run(&self.action_unify, self.conditionals[i].unify)
    }

    /// The flags conditional `i`'s action sets.
    pub(crate) fn action_flags(&self, i: usize) -> &[FlagId] {
        run(&self.action_flags, self.conditionals[i].flags)
    }

    /// A copy of conditional `i`'s action.
    pub fn action(&self, i: usize) -> Action {
        Action {
            unify: self.action_unify(i).to_vec(),
            include: run(&self.action_include, self.conditionals[i].include).to_vec(),
            flags: self.action_flags(i).to_vec(),
        }
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
    fn empty_inclusions_are_dropped() {
        let mut cs = ConstraintSystem::new();
        let a = cs.fresh_var();
        cs.include(Effect::Empty, a);
        assert!(cs.includes.is_empty());
        cs.include(Effect::atom(EffectKind::Read, Loc(0)), a);
        assert_eq!(cs.includes.len(), 1);
    }
}
