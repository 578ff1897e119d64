#![warn(missing_docs)]

//! # localias
//!
//! A from-scratch Rust implementation of **Checking and Inferring Local
//! Non-Aliasing** (Aiken, Foster, Kodumal & Terauchi, PLDI 2003): the
//! `restrict` and `confine` constructs, their type-and-effect checking
//! system, constraint-based checking and inference algorithms, and the
//! flow-sensitive lock-state analysis the paper evaluates them with.
//!
//! The workspace is organized as the paper is:
//!
//! | Paper | Crate (re-exported here as) |
//! |---|---|
//! | the analyzed language | [`ast`] — Mini-C lexer/parser/AST |
//! | unification-based may-alias analysis | [`alias`] — Steensgaard with abstract locations `ρ` |
//! | §4 constraints, Figures 4–5 | [`effects`] — effect terms, normalization, `CHECK-SAT` |
//! | §3–§6 checking & inference | [`core`] — restrict/confine checking, §5/§6 inference |
//! | §7 evaluation substrate | [`cqual`] — flow-sensitive `locked`/`unlocked` checker |
//! | §7 subject programs | [`corpus`] — 589 calibrated synthetic driver modules |
//! | §3.2 operational semantics | [`interp`] — reference interpreter (restrict = copy-and-poison) |
//!
//! # Quick start
//!
//! ```
//! use localias::ast::parse_module;
//! use localias::cqual::{check_locks, Mode};
//!
//! // Figure 1 of the paper, without annotations.
//! let m = parse_module(
//!     "fig1",
//!     r#"
//!     lock locks[8];
//!     extern void work();
//!     void do_with_lock(lock *l) {
//!         spin_lock(l);
//!         work();
//!         spin_unlock(l);
//!     }
//!     void foo(int i) { do_with_lock(&locks[i]); }
//!     "#,
//! )?;
//!
//! // Weak updates lose track of the lock array's state...
//! let weak = check_locks(&m, Mode::NoConfine);
//! assert!(weak.error_count() > 0);
//!
//! // ...but `restrict`/`confine` recover strong updates locally:
//! let m2 = parse_module(
//!     "fig1-restrict",
//!     r#"
//!     lock locks[8];
//!     extern void work();
//!     void do_with_lock(lock *restrict l) {
//!         spin_lock(l);
//!         work();
//!         spin_unlock(l);
//!     }
//!     void foo(int i) { do_with_lock(&locks[i]); }
//!     "#,
//! )?;
//! assert_eq!(check_locks(&m2, Mode::NoConfine).error_count(), 0);
//! # Ok::<(), localias::ast::ParseError>(())
//! ```

pub use localias_alias as alias;
pub use localias_ast as ast;
pub use localias_core as core;
pub use localias_corpus as corpus;
pub use localias_cqual as cqual;
pub use localias_effects as effects;
pub use localias_interp as interp;

/// The README's Rust examples, compiled and run as doctests so they
/// track the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
