//! The front end's contract with its callers, pinned on small inputs:
//! the exact `{:?}` rendering of a parsed module (every node kind, with
//! its node id and span; `every_kind.dump` holds the expected text), and
//! which error wins when the source has both a lexical and a syntax
//! error.

use localias_ast::parse_module;

/// One of every item, statement, expression, operator and type form.
const EVERY_KIND: &str = "struct s { lock mu; int a[2]; };
int g;
extern void get(void);
int *f(struct s *p, lock *restrict l, int n) {
    int *q = new -n;
    restrict int *r = q;
    int x;
    if (!x) { spin_lock(l); } else if (x) { break; } else { continue; }
    for (int i = 0; i < n; i = i + 1) { p->a[i] = (int) *q; }
    while (x) { }
    restrict t = &g { *t = (*p).a[0]; }
    confine (&p->mu) { get(); }
    { return &g; }
    return;
}
";

#[test]
fn module_debug_dump_is_pinned() {
    let m = parse_module("every_kind", EVERY_KIND).expect("parses");
    assert_eq!(
        format!("{m:?}\n"),
        include_str!("every_kind.dump"),
        "the module's debug dump changed"
    );
}

/// A lexical error anywhere in the source wins over a syntax error
/// before it: the bad `@` at 19..20, not the missing operand at `;`.
#[test]
fn lex_error_wins_over_an_earlier_syntax_error() {
    let err = parse_module("m", "void f() { x = ; } @").unwrap_err();
    assert_eq!(err.span.lo, 19);
    assert_eq!(err.span.hi, 20);
    assert_eq!(err.msg, "unexpected character `@`");
}
