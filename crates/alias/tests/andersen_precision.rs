//! Tests of the Andersen-style analysis, including the precision
//! comparison against the unification analysis that motivates it.

use localias_alias::andersen::{analyze, Cell};
use localias_alias::steensgaard;
use localias_ast::visit::{walk_expr, walk_module, Visitor};
use localias_ast::{parse_module, Expr, ExprId, ExprKind, Module, UnOp};

fn parse(src: &str) -> Module {
    parse_module("andersen", src).expect("parse")
}

fn names(cells: Vec<Cell>) -> Vec<String> {
    let mut v: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
    v.sort();
    v
}

#[test]
fn address_of_and_copy() {
    let m = parse("int a; void f() { int *p = &a; int *q = p; }");
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "p")), ["a"]);
    assert_eq!(names(pts.var_points_to("f", "q")), ["a"]);
}

#[test]
fn directional_assignment_is_asymmetric() {
    // The textbook Steensgaard-vs-Andersen separator: after `p = q`,
    // p ⊇ {a, b} but q stays {b}.
    let m = parse("int a; int b; void f() { int *p = &a; int *q = &b; p = q; }");
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "p")), ["a", "b"]);
    assert_eq!(names(pts.var_points_to("f", "q")), ["b"]);
}

#[test]
fn loads_and_stores() {
    let m = parse(
        r#"
        int a;
        int b;
        void f() {
            int *pa = &a;
            int **pp = &pa;
            *pp = &b;       // store: pa may now be a or b
            int *out = *pp; // load: out sees pa's targets
        }
        "#,
    );
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "pa")), ["a", "b"]);
    assert_eq!(names(pts.var_points_to("f", "out")), ["a", "b"]);
}

#[test]
fn heap_cells_are_per_site() {
    let m = parse("void f() { int *p = new (1); int *q = new (2); }");
    let pts = analyze(&m);
    let p = pts.var_points_to("f", "p");
    let q = pts.var_points_to("f", "q");
    assert_eq!(p.len(), 1);
    assert_eq!(q.len(), 1);
    assert_ne!(p, q, "distinct sites get distinct cells");
}

#[test]
fn array_elements_collapse_but_stay_directional() {
    let m = parse(
        r#"
        lock locks[8];
        lock spare;
        void f(int i) {
            lock *l = &locks[i];
            lock *s = &spare;
        }
        "#,
    );
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "l")), ["locks[]"]);
    assert_eq!(names(pts.var_points_to("f", "s")), ["spare"]);
    let l = Cell::Var(Some("f".into()), "l".into());
    let s = Cell::Var(Some("f".into()), "s".into());
    assert!(!pts.may_point_same(&l, &s));
}

#[test]
fn calls_copy_arguments_and_returns() {
    let m = parse(
        r#"
        int g;
        int *identity(int *x) { return x; }
        void f() {
            int *p = identity(&g);
            *p = 1;
        }
        "#,
    );
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("identity", "x")), ["g"]);
    assert_eq!(names(pts.var_points_to("f", "p")), ["g"]);
}

#[test]
fn fields_are_field_based() {
    let m = parse(
        r#"
        struct dev { lock mu; struct dev *next; };
        struct dev pool[4];
        void f(int i) {
            struct dev *d = &pool[i];
            lock *l = &d->mu;
            struct dev *n = d->next;
        }
        "#,
    );
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "l")), ["dev.mu"]);
    // next's contents are unconstrained (never assigned): empty.
    assert!(pts.var_points_to("f", "n").is_empty());
}

#[test]
fn strictly_more_precise_than_unification_on_the_separator() {
    // Under unification, `p = q` merges p's and q's pointee classes, so a
    // write through q may-alias a after the merge. Under inclusion, q
    // still cannot reach `a`.
    let src = r#"
        int a;
        int b;
        void f() {
            int *p = &a;
            int *q = &b;
            p = q;
            *q = 7;
        }
    "#;
    let m = parse(src);

    // Andersen: *q writes only b.
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "q")), ["b"]);

    // Steensgaard: the deref of q lands in a class that also covers a.
    let mut uni = steensgaard::analyze(&m);
    struct FindDeref(Option<ExprId>);
    impl Visitor for FindDeref {
        fn visit_expr(&mut self, m: &Module, e: &Expr) {
            if self.0.is_none() {
                if let ExprKind::Unary(UnOp::Deref, inner) = e.kind {
                    if matches!(m.expr(inner).kind, ExprKind::Var(x) if m.name(x.name) == "q") {
                        self.0 = Some(m.expr_id(e));
                    }
                }
            }
            walk_expr(self, m, e);
        }
    }
    let mut fd = FindDeref(None);
    walk_module(&mut fd, &m);
    let dq = fd.0.expect("deref of q");
    let q_class = uni.lval_loc(dq).expect("class");
    let a_loc = {
        let i = uni
            .state
            .vars
            .iter()
            .position(|v| m.name(v.name) == "a")
            .expect("a");
        match uni.state.vars[i].kind {
            localias_alias::VarKind::Addressed(l) => uni.state.locs.find(l),
            _ => panic!("a is addressed"),
        }
    };
    assert_eq!(
        q_class, a_loc,
        "unification conflates q's pointee with a — the imprecision \
         Andersen avoids"
    );
}

#[test]
fn summarize_reports_pointer_locals() {
    let m = parse(
        r#"
        int g;
        void f() {
            int *p = &g;
            int x = 0;
        }
        "#,
    );
    let summary = localias_alias::andersen::summarize(&m);
    assert_eq!(summary.len(), 1);
    assert_eq!(summary[0].0, "f");
    assert_eq!(summary[0].1, "p");
    assert_eq!(summary[0].2, ["g"]);
}

#[test]
fn flow_insensitivity_still_joins_branches() {
    let m = parse(
        r#"
        int a;
        int b;
        void f(int c) {
            int *p = &a;
            if (c) { p = &b; }
        }
        "#,
    );
    let pts = analyze(&m);
    assert_eq!(names(pts.var_points_to("f", "p")), ["a", "b"]);
}

#[test]
fn total_size_is_a_sane_metric() {
    let m = parse("int a; void f() { int *p = &a; }");
    let pts = analyze(&m);
    assert!(pts.total_size() >= 1);
    assert!(pts.cell_count() >= 2);
}
