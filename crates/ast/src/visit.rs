//! A read-only visitor over a module's nodes.
//!
//! Implement [`Visitor`] and override the hooks you care about; each hook's
//! default implementation recurses via the corresponding `walk_*` function.
//! Overriding a hook and still wanting recursion means calling `walk_*`
//! yourself — the same protocol as `syn`/`rustc` visitors. Every hook
//! gets the module too, which resolves the node's child ids; a block is
//! visited by its id, since [`Module::stmts`] lists its statements.

use crate::ast::ItemKind;
use crate::ast::*;
use crate::intern::Symbol;

/// A read-only AST visitor.
pub trait Visitor: Sized {
    /// Called for every expression.
    fn visit_expr(&mut self, m: &Module, e: &Expr) {
        walk_expr(self, m, e);
    }

    /// Called for every statement.
    fn visit_stmt(&mut self, m: &Module, s: &Stmt) {
        walk_stmt(self, m, s);
    }

    /// Called for every block.
    fn visit_block(&mut self, m: &Module, b: BlockId) {
        walk_block(self, m, b);
    }

    /// Called for every function definition.
    fn visit_fun(&mut self, m: &Module, f: &FunDef) {
        walk_fun(self, m, f);
    }

    /// Called for every top-level item.
    fn visit_item(&mut self, m: &Module, i: &Item) {
        walk_item(self, m, i);
    }
}

/// Recurses into an expression's children.
pub fn walk_expr<V: Visitor>(v: &mut V, m: &Module, e: &Expr) {
    match e.kind {
        ExprKind::Int(_) | ExprKind::Var(_) => {}
        ExprKind::Unary(_, inner)
        | ExprKind::New(inner)
        | ExprKind::Cast(_, inner)
        | ExprKind::Field(inner, _)
        | ExprKind::Arrow(inner, _) => v.visit_expr(m, m.expr(inner)),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
            v.visit_expr(m, m.expr(a));
            v.visit_expr(m, m.expr(b));
        }
        ExprKind::Call(_, args) => {
            for a in m.args(args) {
                v.visit_expr(m, a);
            }
        }
    }
}

/// Recurses into a statement's children: its own expressions, then its
/// blocks, then a loop's step.
pub fn walk_stmt<V: Visitor>(v: &mut V, m: &Module, s: &Stmt) {
    let expr = |v: &mut V, e: Option<ExprId>| {
        if let Some(e) = e {
            v.visit_expr(m, m.expr(e));
        }
    };
    match s.kind {
        StmtKind::Expr(e) => expr(v, Some(e)),
        StmtKind::Decl { init, .. } => expr(v, init),
        StmtKind::Restrict { init, .. } => expr(v, Some(init)),
        StmtKind::Confine { expr: e, .. } => expr(v, Some(e)),
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => expr(v, Some(cond)),
        StmtKind::Return(e) => expr(v, e),
        StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => {}
    }
    for b in s.kind.blocks() {
        v.visit_block(m, b);
    }
    if let StmtKind::While { step, .. } = s.kind {
        expr(v, step);
    }
}

/// Recurses into a block's statements.
pub fn walk_block<V: Visitor>(v: &mut V, m: &Module, b: BlockId) {
    for s in m.stmts(b) {
        v.visit_stmt(m, s);
    }
}

/// Recurses into a function's body.
pub fn walk_fun<V: Visitor>(v: &mut V, m: &Module, f: &FunDef) {
    v.visit_block(m, f.body);
}

/// Recurses into an item's children.
pub fn walk_item<V: Visitor>(v: &mut V, m: &Module, i: &Item) {
    if let ItemKind::Fun(f) = &i.kind {
        v.visit_fun(m, f);
    }
}

/// Visits every item of `m`.
pub fn walk_module<V: Visitor>(v: &mut V, m: &Module) {
    for i in &m.items {
        v.visit_item(m, i);
    }
}

/// Collects all call sites `(callee name, expr id)` in a module.
///
/// A convenience used by several analyses and by the experiment harness to
/// enumerate `spin_lock`/`spin_unlock` sites.
pub fn call_sites(m: &Module) -> Vec<(Symbol, NodeId)> {
    struct Calls(Vec<(Symbol, NodeId)>);
    impl Visitor for Calls {
        fn visit_expr(&mut self, m: &Module, e: &Expr) {
            if let ExprKind::Call(name, _) = e.kind {
                self.0.push((name.name, e.id));
            }
            walk_expr(self, m, e);
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
        let names: Vec<_> = calls.iter().map(|&(n, _)| m.name(n)).collect();
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
            fn visit_expr(&mut self, m: &Module, e: &Expr) {
                if matches!(e.kind, ExprKind::Unary(UnOp::Deref, _)) {
                    self.0 += 1;
                }
                walk_expr(self, m, e);
            }
        }
        let mut v = CountDerefs(0);
        walk_module(&mut v, &m);
        assert_eq!(v.0, 2);
    }
}
