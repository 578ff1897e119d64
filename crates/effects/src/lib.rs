#![warn(missing_docs)]

//! Effect constraints and their solver — the algorithmic core of
//! *Checking and Inferring Local Non-Aliasing* (PLDI 2003), §4–§6.
//!
//! * [`effect`] — kinded effect atoms (`read`/`write`/`alloc` plus plain
//!   `mention` for location sets), effect variables `ε`, and effect terms
//!   `L ::= ∅ | {K(ρ)} | ε | L ∪ L | L ∩ L`;
//! * [`constraint`] — the constraint system: inclusions `L ⊆ ε`, variable
//!   equalities (from Figure 4a type resolution), checked disinclusions
//!   `ρ ∉ ε` (the (Restrict) side conditions), and the conditional
//!   constraints that drive §5/§6 inference;
//! * [`graph`] — normalization into a constraint graph with intersection
//!   nodes (Figure 4b);
//! * [`solve`](crate::solve()) (in the [`solve`](crate::solve) module) —
//!   least solutions over per-kind location bitsets, propagated once per
//!   strongly connected component in topological order, the Figure 5
//!   `CHECK-SAT` single-location query, and the conditional-constraint
//!   fixpoint loop.
//!
//! # Example
//!
//! ```
//! use localias_effects::{ConstraintSystem, Effect, EffectKind, KindMask, solve};
//! use localias_alias::{LocTable, Ty};
//!
//! let mut locs = LocTable::new();
//! let rho = locs.fresh(Ty::Int);
//! let mut cs = ConstraintSystem::new();
//! let body = cs.fresh_var();
//! cs.include(Effect::atom(EffectKind::Write, rho), body);
//! cs.check_not_in(rho, KindMask::ACCESS, body, 0); // "ρ ∉ L2"
//! let sol = solve(&mut cs, &mut locs);
//! assert_eq!(sol.violations().len(), 1); // the restrict would be rejected
//! ```

pub mod constraint;
pub mod effect;
pub mod graph;
pub mod solve;

pub use constraint::{Action, Conditional, ConstraintSystem, FlagId, Guard, NotIn};
pub use effect::{Atom, EffVar, Effect, EffectKind, KindMask};
pub use graph::{build, Graph, NodeIx, NodeKind, Port};
pub use solve::{reaches, solve, solve_with, FxHasher, FxMap, LocVars, Solution, Violation};
