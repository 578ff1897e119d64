//! Determinism and thread-invariance of the call-graph-scheduled
//! checker.
//!
//! Two pinned properties:
//!
//! 1. **Definition-order invariance** (the `call_order` nondeterminism
//!    fix): shuffling function definitions must not change which errors
//!    are reported or their order. Node ids shift when definitions move,
//!    so reports are compared as `(fun, op, found)` sequences plus site
//!    counts.
//! 2. **Thread invariance**: `--intra-jobs N` must produce reports
//!    byte-identical to the sequential schedule, including around the
//!    legacy schedule's corner cases (self-recursion, mutual recursion,
//!    functions downstream of a cycle).

use localias_ast::parse_module;
use localias_core::SharedAnalysis;
use localias_cqual::{
    check_locks, check_locks_frozen, check_modes, LockOp, LockReport, LockState, MODES,
};

/// A report projected onto definition-order-independent data.
type Shape = (Vec<(String, LockOp, LockState)>, usize);

fn shape(r: &LockReport) -> Shape {
    (
        r.errors
            .iter()
            .map(|e| (e.fun.clone(), e.op, e.found))
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
        let got = check_modes(&mut SharedAnalysis::new(&m)).map(|r| shape(&r));
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

/// Every mode and thread count produces byte-identical reports, even on
/// the schedule's corner cases: a self-recursive callee scheduled after
/// its caller, mutual recursion, and functions dragged into the cyclic
/// remainder by being downstream of a cycle.
#[test]
fn thread_count_never_changes_the_report() {
    let src = r#"
        lock gl;
        lock arr[8];
        extern void work();
        void zrec(int n) { spin_lock(&gl); zrec(n); spin_unlock(&gl); }
        void arec(int n) { arec(n); spin_lock(&gl); spin_unlock(&gl); }
        void even(int n) { odd(n); }
        void odd(int n) { even(n); }
        void down(int n) { even(n); spin_lock(&arr[n]); work(); spin_unlock(&arr[n]); }
        void caller(int n) { arec(n); zrec(n); down(n); }
        void leaf(int i) { spin_lock(&arr[i]); work(); spin_unlock(&arr[i]); }
        void mid1(int i) { leaf(i); }
        void mid2(int i) { leaf(i); }
        void top(int i) { mid1(i); mid2(i); }
    "#;
    let m = parse_module("threads", src).expect("parse");
    let mut shared = SharedAnalysis::new(&m);
    let all = check_modes(&mut shared);
    for (mode, sequential) in MODES.into_iter().zip(&all) {
        // Entry points agree: the one-shot path equals the shared path.
        assert_eq!(&check_locks(&m, mode), sequential, "{mode:?} one-shot");
        for jobs in [0, 2, 3, 8, 16] {
            let (analysis, frozen) = mode.analysis(&mut shared);
            let parallel = check_locks_frozen(&m, analysis, frozen, mode, jobs);
            assert_eq!(&parallel, sequential, "{mode:?} at intra_jobs={jobs}");
        }
    }
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
    let first = check_modes(&mut SharedAnalysis::new(&m));
    for _ in 0..5 {
        assert_eq!(check_modes(&mut SharedAnalysis::new(&m)), first);
    }
}
