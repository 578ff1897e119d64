//! The checker's reports on code that cannot change a lock state: early
//! exits in call-free branches and loops, calls that hide in loop
//! conditions, `for` steps and extern arguments, statements that call
//! only externs, restrict and confine scopes over call-free bodies, and
//! call-free loop nests between a lock pair. The lock checker walks only
//! the statements and expressions that can change a lock state (DESIGN
//! §5), so each shape's reports are pinned here in all three modes,
//! error sites included.

use localias_ast::{parse_module, pretty, ExprKind, Module, StmtKind};
use localias_core::{analyze, ConfineCandidate, Options, SharedAnalysis};
use localias_cqual::{check_locks_frozen, check_modes, LockReport, MODES};

fn parse(src: &str) -> Module {
    parse_module("shapes", src).expect("parse")
}

/// One line per mode: the mode, its site count, then each error with
/// its site.
fn render(reports: &[LockReport]) -> String {
    let mut out = String::new();
    for (mode, r) in MODES.iter().zip(reports) {
        out.push_str(&format!("{mode:?} sites={}", r.sites));
        for e in &r.errors {
            out.push_str(&format!("; {} {e}", e.site));
        }
        out.push('\n');
    }
    out
}

/// The shapes and their reports under NoConfine, Confine and AllStrong.
const SHAPES: [(&str, &str, &str); 7] = [
    (
        "return inside a call-free if",
        r#"
        lock a;
        lock locks[4];
        int g;
        void f(int x) {
            spin_lock(&a);
            if (x) { g = 1; return; }
            spin_unlock(&a);
        }
        void k(int i) {
            spin_lock(&locks[i]);
            if (g) { if (i) { return; } g = 2; }
            spin_unlock(&locks[i]);
        }
        void h(int i) { f(i); spin_lock(&a); spin_unlock(&a); k(i); spin_lock(&locks[i]); spin_unlock(&locks[i]); }
        "#,
        "NoConfine sites=8; #42 k: cannot verify spin_unlock (lock state is ⊤); #51 h: cannot verify spin_lock (lock state is ⊤); #64 h: cannot verify spin_lock (lock state is ⊤); #70 h: cannot verify spin_unlock (lock state is ⊤)\n\
         Confine sites=8\n\
         AllStrong sites=8; #51 h: cannot verify spin_lock (lock state is ⊤); #64 h: cannot verify spin_lock (lock state is ⊤)\n",
    ),
    (
        "break and continue in call-free inner loops",
        r#"
        lock locks[8];
        int g;
        void f(int n) {
            while (n) {
                spin_lock(&locks[n]);
                while (g) { if (n) { break; } g = g - 1; }
                for (int j = 0; j < n; j = j + 1) { if (j) { continue; } g = j; }
                spin_unlock(&locks[n]);
                n = n - 1;
            }
        }
        void k(int n) {
            while (n) {
                spin_lock(&locks[n]);
                while (g) { if (n) { break; } spin_unlock(&locks[n]); g = 0; }
                if (g) { break; }
                if (n) { n = n - 1; continue; }
                spin_unlock(&locks[n]);
            }
        }
        void h(int n) { f(n); k(n); spin_lock(&locks[n]); spin_unlock(&locks[n]); }
        "#,
        "NoConfine sites=7; #7 f: cannot verify spin_lock (lock state is ⊤); #48 f: cannot verify spin_unlock (lock state is ⊤); #65 k: cannot verify spin_lock (lock state is ⊤); #76 k: cannot verify spin_unlock (lock state is ⊤); #102 k: cannot verify spin_unlock (lock state is ⊤); #112 h: cannot verify call (lock state is ⊤); #118 h: cannot verify spin_lock (lock state is ⊤); #124 h: cannot verify spin_unlock (lock state is ⊤)\n\
         Confine sites=7; #65 k: cannot verify spin_lock (lock state is ⊤); #76 k: cannot verify spin_unlock (lock state is ⊤); #102 k: cannot verify spin_unlock (lock state is ⊤); #118 h: cannot verify spin_lock (lock state is ⊤)\n\
         AllStrong sites=7; #65 k: cannot verify spin_lock (lock state is ⊤); #76 k: cannot verify spin_unlock (lock state is ⊤); #102 k: cannot verify spin_unlock (lock state is ⊤); #118 h: cannot verify spin_lock (lock state is ⊤)\n",
    ),
    (
        "a call only in a while condition or a for step",
        r#"
        lock a;
        lock locks[4];
        int g;
        int grab() { spin_lock(&a); return g; }
        int drop() { spin_unlock(&a); return 1; }
        void w() { while (grab()) { g = g + 1; } spin_unlock(&a); }
        void s(int n) {
            spin_lock(&a);
            for (int i = 0; i < n; i = i + drop()) { g = i; }
            spin_unlock(&a);
        }
        void t(int i) { while (i) { g = g + 1; } spin_lock(&locks[i]); while (g) { i = i - 1; } spin_unlock(&locks[i]); }
        void h(int n) { w(); s(n); t(n); }
        "#,
        "NoConfine sites=7; #13 drop: cannot verify spin_unlock (lock state is unlocked); #90 t: cannot verify spin_unlock (lock state is ⊤); #45 s: cannot verify call (lock state is ⊤); #58 s: cannot verify spin_unlock (lock state is ⊤); #19 w: cannot verify call (lock state is ⊤)\n\
         Confine sites=7; #13 drop: cannot verify spin_unlock (lock state is unlocked); #90 t: cannot verify spin_unlock (lock state is ⊤); #45 s: cannot verify call (lock state is ⊤); #58 s: cannot verify spin_unlock (lock state is ⊤); #19 w: cannot verify call (lock state is ⊤); #30 w: cannot verify spin_unlock (lock state is ⊤); #97 h: cannot verify call (lock state is ⊤)\n\
         AllStrong sites=7; #13 drop: cannot verify spin_unlock (lock state is unlocked); #45 s: cannot verify call (lock state is ⊤); #58 s: cannot verify spin_unlock (lock state is ⊤); #19 w: cannot verify call (lock state is ⊤)\n",
    ),
    (
        "a defined call nested in an extern call's argument",
        r#"
        lock a;
        int g;
        extern void work(int v);
        extern int probe(int v);
        int take() { spin_lock(&a); return 1; }
        int give() { spin_unlock(&a); return 0; }
        void f() { work(take()); spin_unlock(&a); }
        void k() { spin_lock(&a); g = probe(g + give()); work(probe(give())); }
        void h() { f(); k(); spin_lock(&a); }
        "#,
        "NoConfine sites=5; #14 give: cannot verify spin_unlock (lock state is unlocked); #40 k: cannot verify call (lock state is unlocked)\n\
         Confine sites=5; #14 give: cannot verify spin_unlock (lock state is unlocked); #40 k: cannot verify call (lock state is unlocked)\n\
         AllStrong sites=5; #14 give: cannot verify spin_unlock (lock state is unlocked); #40 k: cannot verify call (lock state is unlocked)\n",
    ),
    (
        "statements that call only externs",
        r#"
        lock a;
        lock locks[4];
        int g;
        extern void work();
        extern int probe(int v);
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            g = probe(g);
            if (probe(i)) { work(); } else { g = probe(probe(g)); }
            while (probe(g)) { work(); }
            spin_unlock(&locks[i]);
        }
        void k() { work(); spin_lock(&a); g = probe(1); spin_lock(&a); }
        void h(int i) { spin_lock(&locks[i]); f(i); spin_unlock(&locks[i]); k(); }
        "#,
        "NoConfine sites=6; #41 f: cannot verify spin_unlock (lock state is ⊤); #58 k: cannot verify spin_lock (lock state is locked); #69 h: cannot verify call (lock state is ⊤); #75 h: cannot verify spin_unlock (lock state is ⊤)\n\
         Confine sites=6; #58 k: cannot verify spin_lock (lock state is locked); #75 h: cannot verify spin_unlock (lock state is ⊤)\n\
         AllStrong sites=6; #58 k: cannot verify spin_lock (lock state is locked); #69 h: cannot verify call (lock state is locked); #75 h: cannot verify spin_unlock (lock state is unlocked)\n",
    ),
    (
        "restrict and confine scopes over call-free bodies",
        r#"
        lock locks[4];
        int g;
        extern void work();
        void d(int i) {
            { restrict lock *l = &locks[i]; g = 1; }
            spin_lock(&locks[i]);
            spin_unlock(&locks[i]);
        }
        void r(lock *q, int i) {
            restrict l = q { g = 2; }
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        void c(int i) {
            confine (&locks[i]) { g = 3; }
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        void h(int i) {
            spin_lock(&locks[i]);
            d(i);
            r(&locks[i], i);
            c(i);
            spin_unlock(&locks[i]);
        }
        "#,
        "NoConfine sites=8; #73 c: cannot verify spin_unlock (lock state is ⊤); #24 d: cannot verify spin_unlock (lock state is ⊤); #47 r: cannot verify spin_unlock (lock state is ⊤); #100 h: cannot verify spin_unlock (lock state is ⊤)\n\
         Confine sites=8; #100 h: cannot verify spin_unlock (lock state is ⊤)\n\
         AllStrong sites=8; #100 h: cannot verify spin_unlock (lock state is unlocked)\n",
    ),
    (
        "a call-free loop nest between a lock pair",
        r#"
        lock a;
        lock locks[4];
        int g;
        extern void work();
        void f(int i, int n) {
            spin_lock(&locks[i]);
            while (n) {
                for (int j = 0; j < n; j = j + 1) {
                    while (g) { if (j) { g = g - 1; } else { g = 0; } }
                }
                n = n - 1;
            }
            spin_unlock(&locks[i]);
        }
        void k(int n) {
            spin_lock(&a);
            while (n) { while (g) { g = g - n; } n = n - 1; }
            spin_lock(&a);
        }
        void h(int i) { f(i, 3); k(i); spin_unlock(&a); }
        "#,
        "NoConfine sites=5; #54 f: cannot verify spin_unlock (lock state is ⊤); #82 k: cannot verify spin_lock (lock state is locked)\n\
         Confine sites=5; #82 k: cannot verify spin_lock (lock state is locked)\n\
         AllStrong sites=5; #82 k: cannot verify spin_lock (lock state is locked)\n",
    ),
];

/// Every dead-code shape reports, in every mode, exactly what the dense
/// walk reported.
#[test]
fn dead_code_shapes_report_as_pinned() {
    let mut failed = Vec::new();
    for (name, src, want) in SHAPES {
        let m = parse(src);
        let (reports, _) = check_modes(&mut SharedAnalysis::new(&m));
        let got = render(&reports);
        if got != want {
            failed.push(format!("{name}:\n{got}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// A confine range over statements that call nothing still copies the
/// lock state in and out, and those copies mark the lock touched. Only
/// a hand-built candidate has such a range: every proposed one holds
/// its `change_type` calls. Here the range is the then-block of `f`'s
/// call-free `if`, so the copies make `f` record no entry requirement,
/// and `h`, which calls `f` with the lock held, gets no `call` error.
#[test]
fn a_range_over_call_free_statements_still_copies() {
    let m = parse(
        r#"
        lock a;
        int g;
        void f(int x) { if (x) { lock *p = &a; g = 2; } spin_lock(&a); spin_unlock(&a); }
        void h(int x) { spin_lock(&a); f(x); spin_unlock(&a); }
        "#,
    );
    let body = m.function("f").expect("f").body;
    let (then_blk, lock_arg) = match m.stmts(body).map(|s| s.kind).collect::<Vec<_>>()[..] {
        [StmtKind::If { then_blk, .. }, StmtKind::Expr(call), _] => match m.expr(call).kind {
            ExprKind::Call(_, args) => (then_blk, m.args(args).next().expect("an argument")),
            _ => unreachable!("a call"),
        },
        _ => unreachable!("an if, then two calls"),
    };
    let candidate = ConfineCandidate {
        block: m.block(then_blk).id,
        start: 0,
        end: 1,
        key: pretty::print_expr(&m, lock_arg),
        expr: lock_arg,
    };
    let mut a = analyze(
        &m,
        Options {
            confine_candidates: vec![candidate],
            ..Options::default()
        },
    );
    assert!(a.confines[0].ok(), "{:?}", a.confines);
    let frozen = a.freeze();
    // The range scopes come from the analysis, so every mode checked
    // against it copies; a walk that skipped the `if` would also report
    // `h: cannot verify call (lock state is locked)`.
    let reports = MODES.map(|mode| check_locks_frozen(&m, &a, &frozen, mode, 1));
    assert_eq!(
        render(&reports),
        "NoConfine sites=4; #31 h: cannot verify spin_unlock (lock state is unlocked)\n\
         Confine sites=4; #31 h: cannot verify spin_unlock (lock state is unlocked)\n\
         AllStrong sites=4; #31 h: cannot verify spin_unlock (lock state is unlocked)\n"
    );
}
