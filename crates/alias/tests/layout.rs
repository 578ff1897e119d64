//! Pins the layout of names and types: a name is a 4-byte id into its
//! module's name table, a declared type an id into its type table, and
//! an analysis type a `Copy` value of two words of 4 bytes, so no AST
//! node, variable or type carries a reference count or drop glue.

use localias_alias::Ty;
use localias_ast::{Expr, Stmt, Symbol, TypeExpr};
use std::mem::size_of;

/// Compiles only for `Copy` types.
fn copy<T: Copy>() {}

#[test]
fn names_and_types_are_small_copy_ids() {
    assert_eq!(size_of::<Symbol>(), 4, "a name is a table index");
    assert_eq!(size_of::<Ty>(), 8);
    assert_eq!(size_of::<Option<Ty>>(), 8, "an unset type costs nothing");
    copy::<Symbol>();
    copy::<TypeExpr>();
    copy::<Ty>();
    // The node sizes measured with ids (56 and 80 bytes with shared
    // strings and boxed types).
    assert!(
        size_of::<Expr>() <= 40,
        "Expr is {} bytes",
        size_of::<Expr>()
    );
    assert!(
        size_of::<Stmt>() <= 40,
        "Stmt is {} bytes",
        size_of::<Stmt>()
    );
}
