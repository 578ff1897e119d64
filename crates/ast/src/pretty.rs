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
    let mut p = Printer::new();
    for item in &m.items {
        p.item(item);
    }
    p.out
}

/// Renders a single expression.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// Appends the rendering of a single expression to `out`.
pub fn write_expr(out: &mut String, e: &Expr) {
    let mut p = Printer {
        out: std::mem::take(out),
        indent: 0,
    };
    p.expr(e);
    *out = p.out;
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
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

    fn item(&mut self, item: &Item) {
        match &item.kind {
            ItemKind::Struct(s) => {
                self.open(&format!("struct {}", s.name));
                for (name, ty) in &s.fields {
                    self.line(&Self::decl_str(ty, &name.name));
                }
                self.close(";");
            }
            ItemKind::Global(g) => {
                self.line(&Self::decl_str(&g.ty, &g.name.name));
            }
            ItemKind::Extern(e) => {
                let params = Self::params_str(&e.params);
                self.line(&format!("extern {} {}({});", e.ret, e.name, params));
            }
            ItemKind::Fun(f) => {
                let params = Self::params_str(&f.params);
                self.open(&format!("{} {}({})", f.ret, f.name, params));
                for s in &f.body.stmts {
                    self.stmt(s);
                }
                self.close("");
            }
        }
    }

    fn params_str(params: &[Param]) -> String {
        params
            .iter()
            .map(|p| {
                if p.restrict {
                    format!("{} restrict {}", p.ty, p.name)
                } else {
                    format!("{} {}", p.ty, p.name)
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Formats `T x;` handling the `T[n]` → `T x[n];` declarator shuffle.
    fn decl_str(ty: &TypeExpr, name: &str) -> String {
        match ty {
            TypeExpr::Array(elem, n) => format!("{elem} {name}[{n}];"),
            _ => format!("{ty} {name};"),
        }
    }

    fn decl_init_str(ty: &TypeExpr, name: &str, init: Option<&Expr>) -> String {
        let mut p = Printer::new();
        let lhs = match ty {
            TypeExpr::Array(elem, n) => format!("{elem} {name}[{n}]"),
            _ => format!("{ty} {name}"),
        };
        match init {
            Some(e) => {
                p.expr(e);
                format!("{lhs} = {};", p.out)
            }
            None => format!("{lhs};"),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                let mut p = Printer::new();
                p.expr(e);
                self.line(&format!("{};", p.out));
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
                let rest = Self::decl_init_str(ty, &name.name, init.as_ref());
                self.line(&format!("{prefix}{rest}"));
            }
            StmtKind::Restrict { name, init, body } => {
                let mut p = Printer::new();
                p.expr(init);
                self.open(&format!("restrict {} = {}", name, p.out));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close("");
            }
            StmtKind::Confine { expr, body } => {
                let mut p = Printer::new();
                p.expr(expr);
                self.open(&format!("confine ({})", p.out));
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close("");
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut p = Printer::new();
                p.expr(cond);
                self.open(&format!("if ({})", p.out));
                for s in &then_blk.stmts {
                    self.stmt(s);
                }
                if let Some(else_blk) = else_blk {
                    self.indent -= 1;
                    self.line("} else {");
                    self.indent += 1;
                    for s in &else_blk.stmts {
                        self.stmt(s);
                    }
                }
                self.close("");
            }
            StmtKind::While { cond, body, step } => {
                let mut p = Printer::new();
                p.expr(cond);
                let head = match step {
                    // A stepped loop prints as a `for` so the step keeps
                    // its continue-safe position on re-parse.
                    Some(step) => {
                        let mut q = Printer::new();
                        q.expr(step);
                        format!("for (; {}; {})", p.out, q.out)
                    }
                    None => format!("while ({})", p.out),
                };
                self.open(&head);
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.close("");
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let mut p = Printer::new();
                    p.expr(e);
                    self.line(&format!("return {};", p.out));
                }
                None => self.line("return;"),
            },
            StmtKind::Block(b) => {
                self.open("");
                for s in &b.stmts {
                    self.stmt(s);
                }
                self.close("");
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        // Fully parenthesized output keeps the printer simple and
        // guarantees re-parse fidelity; readability is secondary.
        match &e.kind {
            ExprKind::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            ExprKind::Var(x) => self.out.push_str(&x.name),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.symbol());
                self.out.push('(');
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::Binary(op, a, b) => {
                self.out.push('(');
                self.expr(a);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr(b);
                self.out.push(')');
            }
            ExprKind::Assign(a, b) => {
                self.expr(a);
                self.out.push_str(" = ");
                self.expr(b);
            }
            ExprKind::Call(f, args) => {
                self.out.push_str(&f.name);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Index(a, i) => {
                self.expr(a);
                self.out.push('[');
                self.expr(i);
                self.out.push(']');
            }
            ExprKind::Field(a, f) => {
                self.expr(a);
                let _ = write!(self.out, ".{f}");
            }
            ExprKind::Arrow(a, f) => {
                self.expr(a);
                let _ = write!(self.out, "->{f}");
            }
            ExprKind::New(inner) => {
                self.out.push_str("new (");
                self.expr(inner);
                self.out.push(')');
            }
            ExprKind::Cast(ty, inner) => {
                let _ = write!(self.out, "({ty}) (");
                self.expr(inner);
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
        let e = parse_expr("&locks[i]").unwrap();
        assert_eq!(print_expr(&e), "&(locks[i])");
        let e = parse_expr("a->f.g").unwrap();
        assert_eq!(print_expr(&e), "a->f.g");
    }
}
