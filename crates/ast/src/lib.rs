#![warn(missing_docs)]

//! Mini-C frontend for the `localias` analyses.
//!
//! This crate implements a small C-like language — *Mini-C* — that is a
//! strict superset of the core imperative calculus of
//! *Checking and Inferring Local Non-Aliasing* (Aiken, Foster, Kodumal &
//! Terauchi, PLDI 2003). It provides:
//!
//! * a hand-written [`lexer`] that streams tokens into a
//!   recursive-descent [`parser`],
//! * the abstract syntax tree ([`ast`]), whose nodes live in flat arrays
//!   of their [`Module`], with stable [`NodeId`]s that the downstream
//!   analyses key their facts on, and whose names and types are `Copy`
//!   ids into the module's name and type tables ([`intern`]),
//! * a [`pretty`] printer that round-trips through the parser,
//! * a [`visit`] walker.
//!
//! Mini-C extends the paper's calculus
//! (`e ::= x | n | new e | *e | e := e | let x = e in e | restrict x = e in e`)
//! with functions, statement blocks, `if`/`while`/`for`, arrays, structs,
//! the `confine (e) { ... }` construct of §6, and the locking intrinsics
//! (`spin_lock`, `spin_unlock`, `change_type`) used by the Section 7
//! experiment.
//!
//! # Example
//!
//! ```
//! use localias_ast::parse_module;
//!
//! let m = parse_module(
//!     "example",
//!     r#"
//!     lock locks[8];
//!     void do_with_lock(lock *l) {
//!         spin_lock(l);
//!         spin_unlock(l);
//!     }
//!     "#,
//! )?;
//! assert_eq!(m.items.len(), 2);
//! # Ok::<(), localias_ast::ParseError>(())
//! ```

pub mod ast;
pub mod fp;
pub mod fx;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{
    BinOp, BindingKind, Block, BlockId, Expr, ExprId, ExprKind, ExprList, FunDef, Global, Ident,
    Item, ItemKind, Module, NodeId, Param, ParamList, Run, Stmt, StmtId, StmtKind, StructDef,
    TypeExpr, TypeKind, Types, UnOp,
};
pub use intern::{Name, Names, Symbol};
pub use lexer::{LexError, Lexer};
pub use parser::{parse_expr, parse_module, ParseError};
pub use span::Span;
pub use token::{Token, TokenKind};

/// Names of the built-in locking intrinsics recognized by the analyses.
///
/// `spin_lock` / `spin_unlock` are the Linux kernel primitives the paper's
/// experiment tracks; `change_type` is CQual's generic state-changing
/// statement of which the former two are instances. Every name table
/// interns them first, as [`Symbol::SPIN_LOCK`], [`Symbol::SPIN_UNLOCK`]
/// and [`Symbol::CHANGE_TYPE`].
pub mod intrinsics {
    /// Acquire a spin lock: `spin_lock(e)`.
    pub const SPIN_LOCK: &str = "spin_lock";
    /// Release a spin lock: `spin_unlock(e)`.
    pub const SPIN_UNLOCK: &str = "spin_unlock";
    /// Generic qualifier state change: `change_type(e)`.
    pub const CHANGE_TYPE: &str = "change_type";
}
