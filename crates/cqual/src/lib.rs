#![warn(missing_docs)]

//! A flow-sensitive lock-state analysis in the style of CQual — the
//! evaluation substrate of *Checking and Inferring Local Non-Aliasing*
//! (PLDI 2003), Section 7.
//!
//! The checker refines `lock` with the flow-sensitive `locked`/`unlocked`
//! qualifiers and verifies every `spin_lock`/`spin_unlock` site. Its
//! precision hinges on *strong updates*, which are only sound for
//! abstract locations standing for a single concrete object; the
//! `restrict`/`confine` machinery of `localias-core` locally manufactures
//! such locations, and [`Mode`] selects how much of it runs — the three
//! modes of the paper's experiment.
//!
//! # Example
//!
//! ```
//! use localias_ast::parse_module;
//! use localias_cqual::{check_locks, Mode};
//!
//! let m = parse_module(
//!     "driver",
//!     r#"
//!     lock locks[8];
//!     extern void work();
//!     void f(int i) {
//!         spin_lock(&locks[i]);
//!         work();
//!         spin_unlock(&locks[i]);
//!     }
//!     "#,
//! )?;
//! // Weak updates cannot verify the unlock...
//! assert!(check_locks(&m, Mode::NoConfine).error_count() > 0);
//! // ...but confine inference recovers the strong updates.
//! assert_eq!(check_locks(&m, Mode::Confine).error_count(), 0);
//! # Ok::<(), localias_ast::ParseError>(())
//! ```

pub mod callgraph;
pub mod flow;
pub mod fx;
pub mod incremental;
mod intra;
pub mod qual;
pub mod report;
pub mod store;
mod summary;

pub use callgraph::CallGraph;
pub use flow::{
    check_locks, check_locks_frozen, check_locks_frozen_timed, check_modes, IntraStats, Mode,
    WaveStat, MODES,
};
pub use incremental::{IncrOutcome, IncrStats, IncrementalSession};
pub use qual::LockState;
pub use report::{LockError, LockOp, LockReport};
pub use store::{strong_updatable, Store};
