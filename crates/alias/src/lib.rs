#![warn(missing_docs)]

//! Unification-based (Steensgaard-style) may-alias analysis for Mini-C.
//!
//! This crate provides the aliasing substrate of *Checking and Inferring
//! Local Non-Aliasing* (PLDI 2003):
//!
//! * [`union_find`] — the disjoint-set structure;
//! * [`loc`] — abstract locations `ρ` and the [`loc::LocTable`];
//! * [`frozen`] — immutable, `Sync` snapshots of a resolved location
//!   table ([`loc::LocTable::freeze`]), for consumers that only query;
//! * [`ty`] — the analysis types `τ ::= int | ref ρ(τ) | ...` and their
//!   unification (the paper's Figure 4a);
//! * [`steensgaard`] — the typing walk that *is* the may-alias analysis,
//!   exposed both standalone ([`steensgaard::analyze`]) and as a generic
//!   walk with hooks ([`steensgaard::analyze_with`]) that `localias-core`
//!   uses to generate effect constraints;
//! * [`andersen`] — an inclusion-based (subset) points-to analysis over
//!   the same AST, for precision comparisons (the direction the paper's
//!   §8 leaves unexplored);
//! * [`backend`] — the freeze step: the pipeline always takes the
//!   verbatim unification capture, and [`backend::Backend::Andersen`]
//!   keeps the refined split of it for the §8 headroom study.
//!
//! # Example
//!
//! ```
//! use localias_ast::parse_module;
//! use localias_alias::steensgaard::analyze;
//!
//! let m = parse_module("m", "void f(int *p) { int *q = p; *q = 1; }")?;
//! let aliases = analyze(&m);
//! assert!(aliases.state.mismatches.is_empty());
//! # Ok::<(), localias_ast::ParseError>(())
//! ```

pub mod andersen;
pub mod backend;
pub mod frozen;
pub mod loc;
pub mod steensgaard;
pub mod ty;
pub mod union_find;

pub use backend::Backend;
pub use frozen::FrozenLocs;
pub use loc::{Loc, LocTable};
pub use localias_ast::fx;
pub use localias_ast::fx::{FxHashMap, FxHashSet, FxHasher, FxMap, FxSet};
pub use steensgaard::{
    analyze, analyze_with, BindSite, FunSig, Hooks, ModuleAliases, NoHooks, ScopeKind, State,
    VarId, VarInfo, VarKind,
};
pub use ty::{locs_of, unify, Ty, TypeMismatch};
pub use union_find::UnionFind;
