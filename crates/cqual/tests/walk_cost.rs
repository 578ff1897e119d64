//! The lock checker's cost in statements walked (`cqual.stmts_walked`),
//! a count that host noise cannot move. The counters are process-global,
//! so this file holds a single test.

use localias_ast::parse_module;
use localias_cqual::{check_locks, MODES};
use localias_obs as obs;

/// A lock pair around `depth` nested call-free loops.
fn loop_nest(depth: usize) -> String {
    let mut body = String::from("g = g + i;");
    for d in 0..depth {
        body = format!("while (g < {d}) {{ if (i) {{ g = g - 1; }} {body} }}");
    }
    format!(
        "lock locks[4]; int g; extern void work();\n\
         void f(int i) {{ spin_lock(&locks[i]); work(); {body} spin_unlock(&locks[i]); }}\n"
    )
}

/// A call-free loop nest costs the checker nothing: in every mode a
/// function whose lock pair encloses one walks the same statements at
/// nest depth 1 as at depth 5, the two that lock and unlock (the extern
/// call between them cannot change a lock state either).
#[test]
fn call_free_loop_nests_walk_no_statements() {
    let _l = obs::test_lock();
    obs::enable_metrics();
    let walked = |depth: usize| {
        let m = parse_module("nest", &loop_nest(depth)).expect("parse");
        MODES.map(|mode| {
            let _ = obs::drain();
            let report = check_locks(&m, mode);
            assert_eq!(report.sites, 2, "{mode:?}");
            obs::drain().counter(obs::Counter::CqualStmtsWalked)
        })
    };
    let (shallow, deep) = (walked(1), walked(5));
    obs::disable_metrics();
    assert_eq!(shallow, [2; 3]);
    assert_eq!(deep, shallow);
}
