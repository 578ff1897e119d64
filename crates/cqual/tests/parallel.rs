//! Determinism of the call-graph-scheduled checker.
//!
//! Two pinned properties:
//!
//! 1. **Definition-order invariance** (the `call_order` nondeterminism
//!    fix): shuffling function definitions must not change which errors
//!    are reported or their order. Node ids shift when definitions move,
//!    so reports are compared as `(fun, op, found)` sequences plus site
//!    counts.
//! 2. **Run-to-run stability**: repeated runs of one input are
//!    bit-identical.

use localias_ast::parse_module;
use localias_core::SharedAnalysis;
use localias_cqual::{check_modes, LockOp, LockReport, LockState};

/// A report projected onto definition-order-independent data.
type Shape = (Vec<(String, LockOp, LockState)>, usize);

fn shape(r: &LockReport) -> Shape {
    (
        r.errors
            .iter()
            .map(|e| (e.fun.to_string(), e.op, e.found))
            .collect(),
        r.sites,
    )
}

fn check_all_orders(fragments: &[&str]) {
    // A handful of deterministic orderings: forward, reverse, and two
    // rotations — enough to catch any dependence on definition order.
    let n = fragments.len();
    let orderings: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).map(|i| (i + 1) % n).collect(),
        (0..n).map(|i| (i + n / 2) % n).collect(),
    ];
    let mut baseline: Option<[Shape; 3]> = None;
    for (k, ord) in orderings.iter().enumerate() {
        let src: String = ord.iter().map(|&i| fragments[i]).collect();
        let m = parse_module("shuffled", &src).expect("parse");
        let got = check_modes(&mut SharedAnalysis::new(&m))
            .0
            .map(|r| shape(&r));
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "ordering #{k}"),
        }
    }
}

#[test]
fn reports_survive_definition_shuffling() {
    check_all_orders(&[
        "lock gl;\nlock arr[8];\nextern void work();\n",
        "void locker() { spin_lock(&gl); }\n",
        "void unlocker() { spin_unlock(&gl); }\n",
        "void weak(int i) { spin_lock(&arr[i]); work(); spin_unlock(&arr[i]); }\n",
        "void pair() { locker(); unlocker(); }\n",
        "void user(int i) { pair(); weak(i); }\n",
    ]);
}

#[test]
fn recursive_shapes_survive_definition_shuffling() {
    check_all_orders(&[
        "lock gl;\nextern void work();\n",
        "void selfy(int n) { spin_lock(&gl); selfy(n); spin_unlock(&gl); }\n",
        "void even(int n) { odd(n); }\n",
        "void odd(int n) { even(n); }\n",
        "void downstream(int n) { even(n); spin_lock(&gl); spin_unlock(&gl); }\n",
        "void caller(int n) { selfy(n); downstream(n); }\n",
    ]);
}

/// Repeated runs of the same input are bit-stable (no hash-iteration
/// dependence anywhere in the pipeline).
#[test]
fn repeated_runs_are_bit_stable() {
    let src = r#"
        lock arr[4];
        extern void work();
        void a(int i) { spin_lock(&arr[i]); work(); spin_unlock(&arr[i]); }
        void b(int i) { a(i); }
        void c(int i) { a(i); b(i); }
    "#;
    let m = parse_module("stable", src).expect("parse");
    let first = check_modes(&mut SharedAnalysis::new(&m)).0;
    for _ in 0..5 {
        assert_eq!(check_modes(&mut SharedAnalysis::new(&m)).0, first);
    }
}
