//! Pretty-printing Mini-C ASTs back to parseable source.
//!
//! The printer is total and round-trips: for any well-formed module `m`,
//! `parse_module(print(m))` succeeds and is structurally equal to `m`
//! modulo node ids and spans. The corpus generator relies on this to emit
//! its synthetic drivers as source text.
//!
//! # Stability guarantee
//!
//! The output is a *canonical form*: printing is deterministic (a pure
//! function of the AST — no hash-map iteration, environment, or locale
//! dependence), and it is a fixpoint under re-parsing:
//!
//! ```text
//! print(parse(print(m))) == print(m)        for every well-formed m
//! ```
//!
//! Comments, whitespace, redundant parentheses, and the `while`-with-step
//! vs. `for` surface distinction all normalize away. The guarantee is
//! pinned per construct by the tests below and over the whole 589-module
//! corpus by `crates/bench/tests/pretty_stability.rs`. Cache keys do not
//! depend on it: the incremental analysis cache (`localias-bench`) keys
//! modules by their structure ([`crate::fp::structural`]), never by
//! printed text.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole module as source text.
pub fn print_module(m: &Module) -> String {
    let mut p = Printer::new(m);
    for item in &m.items {
        p.item(item);
    }
    p.out
}

/// Renders a single expression of module `m`.
pub fn print_expr(m: &Module, e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, m, e);
    out
}

/// Appends the rendering of a single expression of module `m` to `out`.
pub fn write_expr(out: &mut String, m: &Module, e: &Expr) {
    let mut p = Printer {
        m,
        out: std::mem::take(out),
        indent: 0,
    };
    p.expr(e);
    *out = p.out;
}

struct Printer<'m> {
    m: &'m Module,
    out: String,
    indent: usize,
}

impl<'m> Printer<'m> {
    fn new(m: &'m Module) -> Self {
        Printer {
            m,
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn open(&mut self, head: &str) {
        self.line(&format!("{head} {{"));
        self.indent += 1;
    }

    fn close(&mut self, tail: &str) {
        self.indent -= 1;
        self.line(&format!("}}{tail}"));
    }

    /// Prints the statements of block `b` at the current indentation.
    fn stmts(&mut self, b: BlockId) {
        let m = self.m;
        for s in m.stmts(b) {
            self.stmt(s);
        }
    }

    /// Expression `e` rendered on its own.
    fn expr_str(&self, e: ExprId) -> String {
        print_expr(self.m, self.m.expr(e))
    }

    fn item(&mut self, item: &Item) {
        let m = self.m;
        match &item.kind {
            ItemKind::Struct(s) => {
                self.open(&format!("struct {}", m.name(s.name.name)));
                for &(name, ty) in &s.fields {
                    self.line(&self.decl_str(ty, name));
                }
                self.close(";");
            }
            ItemKind::Global(g) => {
                self.line(&self.decl_str(g.ty, g.name));
            }
            ItemKind::Extern(e) => {
                let params = self.params_str(e.params);
                let (ret, name) = (m.show_type(e.ret), m.name(e.name.name));
                self.line(&format!("extern {ret} {name}({params});"));
            }
            ItemKind::Fun(f) => {
                let params = self.params_str(f.params);
                let (ret, name) = (m.show_type(f.ret), m.name(f.name.name));
                self.open(&format!("{ret} {name}({params})"));
                self.stmts(f.body);
                self.close("");
            }
        }
    }

    fn params_str(&self, params: ParamList) -> String {
        let m = self.m;
        m.params(params)
            .iter()
            .map(|p| {
                let (ty, name) = (m.show_type(p.ty), m.name(p.name.name));
                if p.restrict {
                    format!("{ty} restrict {name}")
                } else {
                    format!("{ty} {name}")
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Formats `T x;` handling the `T[n]` → `T x[n];` declarator shuffle.
    fn decl_str(&self, ty: TypeExpr, name: Ident) -> String {
        format!("{};", self.declarator(ty, name))
    }

    /// `T x`, or `T x[n]` for an array type.
    fn declarator(&self, ty: TypeExpr, name: Ident) -> String {
        let m = self.m;
        let name = m.name(name.name);
        match m.ty(ty) {
            TypeKind::Array(elem, n) => format!("{} {name}[{n}]", m.show_type(elem)),
            _ => format!("{} {name}", m.show_type(ty)),
        }
    }

    fn decl_init_str(&self, ty: TypeExpr, name: Ident, init: Option<ExprId>) -> String {
        let lhs = self.declarator(ty, name);
        match init {
            Some(e) => format!("{lhs} = {};", self.expr_str(e)),
            None => format!("{lhs};"),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                let e = self.expr_str(*e);
                self.line(&format!("{e};"));
            }
            StmtKind::Decl {
                binding,
                ty,
                name,
                init,
            } => {
                let prefix = match binding {
                    BindingKind::Let => "",
                    BindingKind::Restrict => "restrict ",
                };
                let rest = self.decl_init_str(*ty, *name, *init);
                self.line(&format!("{prefix}{rest}"));
            }
            StmtKind::Restrict { name, init, body } => {
                let init = self.expr_str(*init);
                let name = self.m.name(name.name);
                self.open(&format!("restrict {name} = {init}"));
                self.stmts(*body);
                self.close("");
            }
            StmtKind::Confine { expr, body } => {
                let expr = self.expr_str(*expr);
                self.open(&format!("confine ({expr})"));
                self.stmts(*body);
                self.close("");
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let cond = self.expr_str(*cond);
                self.open(&format!("if ({cond})"));
                self.stmts(*then_blk);
                if let Some(else_blk) = else_blk {
                    self.indent -= 1;
                    self.line("} else {");
                    self.indent += 1;
                    self.stmts(*else_blk);
                }
                self.close("");
            }
            StmtKind::While { cond, body, step } => {
                let cond = self.expr_str(*cond);
                let head = match step {
                    // A stepped loop prints as a `for` so the step keeps
                    // its continue-safe position on re-parse.
                    Some(step) => format!("for (; {cond}; {})", self.expr_str(*step)),
                    None => format!("while ({cond})"),
                };
                self.open(&head);
                self.stmts(*body);
                self.close("");
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let e = self.expr_str(*e);
                    self.line(&format!("return {e};"));
                }
                None => self.line("return;"),
            },
            StmtKind::Block(b) => {
                self.open("");
                self.stmts(*b);
                self.close("");
            }
        }
    }

    /// Appends child expression `e`.
    fn sub(&mut self, e: ExprId) {
        let m = self.m;
        self.expr(m.expr(e));
    }

    fn expr(&mut self, e: &Expr) {
        // Fully parenthesized output keeps the printer simple and
        // guarantees re-parse fidelity; readability is secondary.
        match &e.kind {
            ExprKind::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            ExprKind::Var(x) => self.out.push_str(self.m.name(x.name)),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.symbol());
                self.out.push('(');
                self.sub(*inner);
                self.out.push(')');
            }
            ExprKind::Binary(op, a, b) => {
                self.out.push('(');
                self.sub(*a);
                let _ = write!(self.out, " {} ", op.symbol());
                self.sub(*b);
                self.out.push(')');
            }
            ExprKind::Assign(a, b) => {
                self.sub(*a);
                self.out.push_str(" = ");
                self.sub(*b);
            }
            ExprKind::Call(f, args) => {
                self.out.push_str(self.m.name(f.name));
                self.out.push('(');
                let m = self.m;
                for (i, a) in m.args(*args).enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Index(a, i) => {
                self.sub(*a);
                self.out.push('[');
                self.sub(*i);
                self.out.push(']');
            }
            ExprKind::Field(a, f) => {
                self.sub(*a);
                let _ = write!(self.out, ".{}", self.m.name(f.name));
            }
            ExprKind::Arrow(a, f) => {
                self.sub(*a);
                let _ = write!(self.out, "->{}", self.m.name(f.name));
            }
            ExprKind::New(inner) => {
                self.out.push_str("new (");
                self.sub(*inner);
                self.out.push(')');
            }
            ExprKind::Cast(ty, inner) => {
                let _ = write!(self.out, "({}) (", self.m.show_type(*ty));
                self.sub(*inner);
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Structural equality of modules ignoring ids and spans: compare
    /// through the printer itself (prints are id/span-free).
    fn roundtrip(src: &str) {
        let m1 = parse_module("m", src).unwrap();
        let printed1 = print_module(&m1);
        let m2 = parse_module("m", &printed1).unwrap();
        let printed2 = print_module(&m2);
        assert_eq!(printed1, printed2, "print∘parse must be idempotent");
    }

    #[test]
    fn roundtrip_figure1() {
        roundtrip(
            r#"
            lock locks[8];
            extern void work();
            void do_with_lock(lock *restrict l) {
                spin_lock(l);
                work();
                spin_unlock(l);
            }
            void foo(int i) { do_with_lock(&locks[i]); }
            "#,
        );
    }

    #[test]
    fn roundtrip_constructs() {
        roundtrip(
            r#"
            struct dev { lock mu; int n; };
            struct dev devs[4];
            int counter;
            void f(struct dev *d, int i) {
                restrict int *p = &counter;
                restrict q = &devs[i].n {
                    *q = *q + 1;
                }
                confine (&d->mu) {
                    spin_lock(&d->mu);
                    spin_unlock(&d->mu);
                }
                if (i == 0) { d->n = 1; } else { d->n = 2; }
                while (i < 10) { i = i + 1; if (i == 5) { break; } continue; }
                int *r = new (i);
                *r = (int) (i);
                return;
            }
            "#,
        );
    }

    /// The canonical-form fixpoint on the surface forms that do not
    /// print back the way they were written: `for` loops (a stepped
    /// `while` prints as `for`), comments, and redundant parentheses.
    #[test]
    fn canonicalization_reaches_a_fixpoint() {
        let src = r#"
        // leading comment
        int g;
        void f(int i) {
            for (; i < 10; i = i + 1) { g = ((g) + (i)); }
            while (g > 0) { g = g - 1; }
        }
        "#;
        let printed = print_module(&parse_module("m", src).unwrap());
        let reparsed = print_module(&parse_module("m", &printed).unwrap());
        assert_eq!(printed, reparsed, "print∘parse must fix the canonical form");
        assert!(!printed.contains("//"), "comments must normalize away");
        assert!(
            printed.contains("for (; (i < 10); i = (i + 1))"),
            "{printed}"
        );
    }

    #[test]
    fn expr_printing() {
        use crate::parser::parse_expr;
        let (m, e) = parse_expr("&locks[i]").unwrap();
        assert_eq!(print_expr(&m, m.expr(e)), "&(locks[i])");
        let (m, e) = parse_expr("a->f.g").unwrap();
        assert_eq!(print_expr(&m, m.expr(e)), "a->f.g");
    }
}
