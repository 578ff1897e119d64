//! A read-only visitor over the Mini-C AST.
//!
//! Implement [`Visitor`] and override the hooks you care about; each hook's
//! default implementation recurses via the corresponding `walk_*` function.
//! Overriding a hook and still wanting recursion means calling `walk_*`
//! yourself — the same protocol as `syn`/`rustc` visitors.

use crate::ast::ItemKind;
use crate::ast::*;
use crate::intern::Symbol;

/// A read-only AST visitor.
pub trait Visitor: Sized {
    /// Called for every expression.
    fn visit_expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }

    /// Called for every statement.
    fn visit_stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }

    /// Called for every block.
    fn visit_block(&mut self, b: &Block) {
        walk_block(self, b);
    }

    /// Called for every function definition.
    fn visit_fun(&mut self, f: &FunDef) {
        walk_fun(self, f);
    }

    /// Called for every top-level item.
    fn visit_item(&mut self, i: &Item) {
        walk_item(self, i);
    }
}

/// Recurses into an expression's children.
pub fn walk_expr<V: Visitor>(v: &mut V, e: &Expr) {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Var(_) => {}
        ExprKind::Unary(_, inner) | ExprKind::New(inner) | ExprKind::Cast(_, inner) => {
            v.visit_expr(inner)
        }
        ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::Field(inner, _) | ExprKind::Arrow(inner, _) => v.visit_expr(inner),
    }
}

/// Recurses into a statement's children.
pub fn walk_stmt<V: Visitor>(v: &mut V, s: &Stmt) {
    match &s.kind {
        StmtKind::Expr(e) => v.visit_expr(e),
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                v.visit_expr(e);
            }
        }
        StmtKind::Restrict { init, body, .. } => {
            v.visit_expr(init);
            v.visit_block(body);
        }
        StmtKind::Confine { expr, body } => {
            v.visit_expr(expr);
            v.visit_block(body);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            v.visit_expr(cond);
            v.visit_block(then_blk);
            if let Some(b) = else_blk {
                v.visit_block(b);
            }
        }
        StmtKind::While { cond, body, step } => {
            v.visit_expr(cond);
            v.visit_block(body);
            if let Some(step) = step {
                v.visit_expr(step);
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => v.visit_block(b),
    }
}

/// Recurses into a block's statements.
pub fn walk_block<V: Visitor>(v: &mut V, b: &Block) {
    for s in &b.stmts {
        v.visit_stmt(s);
    }
}

/// Recurses into a function's body.
pub fn walk_fun<V: Visitor>(v: &mut V, f: &FunDef) {
    v.visit_block(&f.body);
}

/// Recurses into an item's children.
pub fn walk_item<V: Visitor>(v: &mut V, i: &Item) {
    if let ItemKind::Fun(f) = &i.kind {
        v.visit_fun(f);
    }
}

/// Visits every item of `m`.
pub fn walk_module<V: Visitor>(v: &mut V, m: &Module) {
    for i in &m.items {
        v.visit_item(i);
    }
}

/// Collects all call sites `(callee name, expr id)` in a module.
///
/// A convenience used by several analyses and by the experiment harness to
/// enumerate `spin_lock`/`spin_unlock` sites.
pub fn call_sites(m: &Module) -> Vec<(Symbol, NodeId)> {
    struct Calls(Vec<(Symbol, NodeId)>);
    impl Visitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Call(name, _) = &e.kind {
                self.0.push((name.name.clone(), e.id));
            }
            walk_expr(self, e);
        }
    }
    let mut c = Calls(Vec::new());
    walk_module(&mut c, m);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    #[test]
    fn call_sites_found() {
        let m = parse_module(
            "m",
            "extern void work(); void f(lock *l) { spin_lock(l); work(); spin_unlock(l); }",
        )
        .unwrap();
        let calls = call_sites(&m);
        let names: Vec<_> = calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["spin_lock", "work", "spin_unlock"]);
    }

    #[test]
    fn visitor_reaches_nested_expressions() {
        let m = parse_module(
            "m",
            "void f(int **pp, int i) { if (i < 3) { *(*pp) = i; } else { while (i) { i = i - 1; } } }",
        )
        .unwrap();
        struct CountDerefs(usize);
        impl Visitor for CountDerefs {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(e.kind, ExprKind::Unary(UnOp::Deref, _)) {
                    self.0 += 1;
                }
                walk_expr(self, e);
            }
        }
        let mut v = CountDerefs(0);
        walk_module(&mut v, &m);
        assert_eq!(v.0, 2);
    }
}
