//! Integration tests of the may-alias analysis on richer pointer shapes:
//! multi-level pointers, pointer-holding structs, externs, and the
//! taint/multiplicity metadata downstream analyses rely on.

use localias_alias::loc::Multiplicity;
use localias_alias::steensgaard::analyze;
use localias_alias::Ty;
use localias_ast::visit::{walk_expr, walk_module, Visitor};
use localias_ast::{parse_module, Expr, ExprId, ExprKind, Module, UnOp};

fn parse(src: &str) -> Module {
    parse_module("alias-test", src).expect("parse")
}

/// All `*name` dereference expression ids, in source order.
fn derefs_of(m: &Module, name: &str) -> Vec<ExprId> {
    struct D<'a>(&'a str, Vec<ExprId>);
    impl Visitor for D<'_> {
        fn visit_expr(&mut self, m: &Module, e: &Expr) {
            if let ExprKind::Unary(UnOp::Deref, inner) = e.kind {
                if matches!(m.expr(inner).kind, ExprKind::Var(x) if m.name(x.name) == self.0) {
                    self.1.push(m.expr_id(e));
                }
            }
            walk_expr(self, m, e);
        }
    }
    let mut d = D(name, Vec::new());
    walk_module(&mut d, m);
    d.1
}

#[test]
fn double_pointers_unify_by_level() {
    let m = parse(
        r#"
        void f(int **pp, int **qq) {
            qq = pp;
            **pp = 1;
            **qq = 2;
        }
        "#,
    );
    let mut a = analyze(&m);
    assert!(a.state.mismatches.is_empty());
    // The inner pointees must have merged: find *pp and *qq types.
    let dpp = derefs_of(&m, "pp")[0];
    let dqq = derefs_of(&m, "qq")[0];
    let tp = a.state.exprs[dpp.index()].ty.unwrap();
    let tq = a.state.exprs[dqq.index()].ty.unwrap();
    match (tp, tq) {
        (Ty::Ref(l1), Ty::Ref(l2)) => assert!(a.state.locs.same(l1, l2)),
        other => panic!("expected pointer types, got {other:?}"),
    }
}

#[test]
fn pointer_in_struct_flows_through_field() {
    let m = parse(
        r#"
        struct box { int *ptr; };
        struct box b;
        int target;
        void f(int *p) {
            b.ptr = &target;
            p = b.ptr;
            *p = 1;
        }
        "#,
    );
    let mut a = analyze(&m);
    assert!(a.state.mismatches.is_empty());
    let dp = derefs_of(&m, "p")[0];
    // *p must be the `target` global's location.
    let target_loc = {
        let v = a
            .state
            .vars
            .iter()
            .position(|v| m.name(v.name) == "target")
            .unwrap();
        match a.state.vars[v].kind {
            localias_alias::VarKind::Addressed(l) => a.state.locs.find(l),
            _ => panic!("globals are addressed"),
        }
    };
    assert_eq!(a.lval_loc(dp), Some(target_loc));
}

#[test]
fn extern_args_unify_with_each_other() {
    // Two calls to the same extern unify their arguments' types with the
    // (shared, per-extern) parameter type — conservative aliasing through
    // an unknown boundary.
    let m = parse(
        r#"
        extern void sink(int *p);
        int a;
        int b;
        void f() {
            sink(&a);
            sink(&b);
        }
        "#,
    );
    let mut an = analyze(&m);
    let (la, lb) = {
        let pos = |n: &str| {
            an.state
                .vars
                .iter()
                .position(|v| m.name(v.name) == n)
                .expect("var")
        };
        let loc = |an: &mut localias_alias::ModuleAliases, i: usize| match an.state.vars[i].kind {
            localias_alias::VarKind::Addressed(l) => an.state.locs.find(l),
            _ => panic!("addressed"),
        };
        let (pa, pb) = (pos("a"), pos("b"));
        (loc(&mut an, pa), loc(&mut an, pb))
    };
    assert!(
        an.state.locs.same(la, lb),
        "extern parameter conflates its arguments"
    );
    // And the merged class no longer counts as a single object.
    assert_eq!(an.state.locs.multiplicity(la), Multiplicity::Many);
}

#[test]
fn separate_arrays_do_not_alias() {
    let m = parse(
        r#"
        lock left[4];
        lock right[4];
        void f(int i) {
            spin_lock(&left[i]);
            spin_lock(&right[i]);
        }
        "#,
    );
    let mut a = analyze(&m);
    struct Idx(Vec<ExprId>);
    impl Visitor for Idx {
        fn visit_expr(&mut self, m: &Module, e: &Expr) {
            if matches!(e.kind, ExprKind::Index(_, _)) {
                self.0.push(m.expr_id(e));
            }
            walk_expr(self, m, e);
        }
    }
    let mut v = Idx(Vec::new());
    walk_module(&mut v, &m);
    assert!(!a.may_alias(v.0[0], v.0[1]));
}

#[test]
fn conditional_assignment_unifies_both_sources() {
    let m = parse(
        r#"
        int x;
        int y;
        void f(int c) {
            int *p = &x;
            if (c) { p = &y; }
            *p = 1;
        }
        "#,
    );
    let mut a = analyze(&m);
    let dp = derefs_of(&m, "p")[0];
    let lp = a.lval_loc(dp).unwrap();
    // p's pointee class covers both x and y (flow-insensitive), and is
    // therefore not strongly updatable.
    assert_eq!(a.state.locs.multiplicity(lp), Multiplicity::Many);
}

#[test]
fn heap_chain_through_double_new() {
    let m = parse(
        r#"
        void f() {
            int **pp = new (new (7));
            **pp = 8;
        }
        "#,
    );
    let a = analyze(&m);
    assert!(a.state.mismatches.is_empty());
}

#[test]
fn comparison_does_not_unify() {
    let m = parse(
        r#"
        void f() {
            int *p = new (1);
            int *q = new (2);
            if (p == q) { *p = 3; }
            *q = 4;
        }
        "#,
    );
    let mut a = analyze(&m);
    let dp = derefs_of(&m, "p")[0];
    let dq = derefs_of(&m, "q")[0];
    assert!(
        !a.may_alias(dp, dq),
        "== must not merge pointees (comparison is not assignment)"
    );
}

#[test]
fn int_to_pointer_cast_taints() {
    let m = parse(
        r#"
        void f(int cookie) {
            int *p = (int*) cookie;
            *p = 1;
        }
        "#,
    );
    let mut a = analyze(&m);
    assert!(!a.state.mismatches.is_empty(), "int→ptr cast is a mismatch");
    let dp = derefs_of(&m, "p")[0];
    if let Some(l) = a.lval_loc(dp) {
        assert!(a.state.locs.is_tainted(l));
    }
}

#[test]
fn stress_many_chained_copies() {
    // A long chain of copies must land in one class, in near-linear time.
    let mut src = String::from("int g;\nvoid f() {\n    int *p0 = &g;\n");
    for i in 1..200 {
        src.push_str(&format!("    int *p{i} = p{};\n", i - 1));
    }
    src.push_str("    *p199 = 1;\n}\n");
    let m = parse(&src);
    let mut a = analyze(&m);
    let d = derefs_of(&m, "p199")[0];
    let g_loc = {
        let v = a
            .state
            .vars
            .iter()
            .position(|v| m.name(v.name) == "g")
            .unwrap();
        match a.state.vars[v].kind {
            localias_alias::VarKind::Addressed(l) => a.state.locs.find(l),
            _ => panic!(),
        }
    };
    assert_eq!(a.lval_loc(d), Some(g_loc));
}
