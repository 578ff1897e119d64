//! Tests of the §3.2 operational semantics: restrict as copy-and-poison,
//! confine by substitution, and dynamic lock checking.

use localias_ast::parse_module;
use localias_ast::Module;
use localias_interp::{Interp, RuntimeError, Value};

fn parse(src: &str) -> Module {
    parse_module("test", src).expect("parse")
}

fn run(src: &str, fun: &str) -> Result<Value, RuntimeError> {
    let m = parse(src);
    let mut i = Interp::new(&m, 100_000);
    i.call_with_default_args(fun, 1)
}

#[test]
fn arithmetic_and_control_flow() {
    let v = run(
        r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(55));
}

#[test]
fn loops_break_continue() {
    let v = run(
        r#"
        int main() {
            int acc = 0;
            for (int i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 9) { break; }
                acc = acc + i;
            }
            return acc;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(1 + 3 + 5 + 7 + 9));
}

#[test]
fn pointers_heap_and_arrays() {
    let v = run(
        r#"
        int arr[4];
        int main() {
            int *p = new (7);
            arr[2] = *p + 1;
            int *q = &arr[2];
            return *q;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(8));
}

#[test]
fn structs_and_fields() {
    let v = run(
        r#"
        struct pair { int a; int b; };
        struct pair ps[2];
        int main() {
            struct pair *p = &ps[1];
            p->a = 3;
            p->b = 4;
            return p->a * 10 + ps[1].b;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(34));
}

#[test]
fn out_of_bounds_faults() {
    let err = run("int arr[2]; int main() { return arr[5]; }", "main").unwrap_err();
    assert!(matches!(err, RuntimeError::MemoryFault { .. }), "{err}");
}

#[test]
fn null_deref_faults() {
    let err = run("int main() { int *p; return *p; }", "main").unwrap_err();
    assert!(matches!(err, RuntimeError::MemoryFault { .. }), "{err}");
}

#[test]
fn unbounded_loop_runs_out_of_fuel() {
    let err = run("void spin() { while (1) { } }", "spin").unwrap_err();
    assert_eq!(err, RuntimeError::OutOfFuel);
}

// ---- Restrict semantics ------------------------------------------------------

#[test]
fn valid_restrict_executes() {
    let v = run(
        r#"
        int main() {
            int *q = new (1);
            restrict p = q {
                *p = *p + 10;
                int *r = p;
                *r = *r + 100;
            }
            return *q;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(111), "writes through the copy flow back");
}

#[test]
fn alias_access_in_scope_faults() {
    // The §2 example: *q inside p's restrict scope hits the poisoned
    // original.
    let err = run(
        r#"
        int main() {
            int *q = new (1);
            restrict p = q {
                *p = 2;
                *q = 3;
            }
            return 0;
        }
        "#,
        "main",
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );
}

#[test]
fn alias_access_after_scope_is_fine() {
    let v = run(
        r#"
        int main() {
            int *q = new (1);
            restrict p = q { *p = 2; }
            *q = *q + 40;
            return *q;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(42));
}

#[test]
fn rebinding_poisons_the_outer_copy() {
    // §2: inside `restrict r = p`, *p is invalid; afterwards valid again.
    let err = run(
        r#"
        int main() {
            int *q = new (1);
            restrict p = q {
                restrict r = p {
                    *r = 2;
                    *p = 3;
                }
            }
            return 0;
        }
        "#,
        "main",
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );

    let v = run(
        r#"
        int main() {
            int *q = new (1);
            restrict p = q {
                restrict r = p { *r = 9; }
                *p = *p + 1;
            }
            return *q;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(10), "restores unwind in nesting order");
}

#[test]
fn escaped_copy_faults_after_scope() {
    // §2: `x = p` lets the copy escape; using it after the scope hits the
    // now-poisoned copy cell.
    let err = run(
        r#"
        int *x;
        int main() {
            int *q = new (1);
            restrict p = q { x = p; }
            return *x;
        }
        "#,
        "main",
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );
}

#[test]
fn restrict_param_semantics() {
    let v = run(
        r#"
        int bump(int *restrict p) {
            *p = *p + 1;
            return *p;
        }
        int main() {
            int *q = new (5);
            bump(q);
            return *q;
        }
        "#,
        "main",
    )
    .unwrap();
    assert_eq!(v, Value::Int(6), "copy-out restores the caller's view");
}

#[test]
fn restrict_decl_scope_is_rest_of_block() {
    let err = run(
        r#"
        int main() {
            int *q = new (1);
            restrict int *p = q;
            *p = 2;
            *q = 3;
            return 0;
        }
        "#,
        "main",
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );
}

// ---- Confine semantics -------------------------------------------------------

#[test]
fn confine_substitutes_occurrences() {
    let m = parse(
        r#"
        lock locks[4];
        extern void work();
        void f(int i) {
            confine (&locks[i]) {
                spin_lock(&locks[i]);
                work();
                spin_unlock(&locks[i]);
            }
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp
        .call_with_default_args("f", 2)
        .expect("confined occurrences must hit the copy, not the poisoned original");
    assert!(interp.lock_faults.is_empty());
}

#[test]
fn confine_blocks_unsubstituted_aliases() {
    // Accessing a *different* syntactic path to the same lock inside the
    // scope hits the poisoned original — with equal indices, locks[j] is
    // locks[i].
    let m = parse(
        r#"
        lock locks[4];
        void f(int i, int j) {
            confine (&locks[i]) {
                spin_lock(&locks[i]);
                spin_unlock(&locks[j]);
            }
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    // Default args make i == j, so &locks[j] is the poisoned cell.
    let err = interp.call_with_default_args("f", 1).unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );
}

// ---- Dynamic lock checking ---------------------------------------------------

#[test]
fn dynamic_double_acquire_detected() {
    let m = parse(
        r#"
        lock mu;
        void f() {
            spin_lock(&mu);
            spin_lock(&mu);
            spin_unlock(&mu);
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("f", 0).unwrap();
    assert_eq!(interp.lock_faults.len(), 1);
    assert!(interp.lock_faults[0].detail.contains("double acquire"));
}

#[test]
fn dynamic_release_of_unheld_detected() {
    let m = parse(
        r#"
        lock mu;
        void f() { spin_unlock(&mu); }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("f", 0).unwrap();
    assert_eq!(interp.lock_faults.len(), 1);
    assert!(interp.lock_faults[0].detail.contains("unheld"));
}

#[test]
fn balanced_locking_is_silent() {
    let m = parse(
        r#"
        lock locks[4];
        extern void work();
        void f(int i) {
            spin_lock(&locks[i]);
            work();
            spin_unlock(&locks[i]);
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("f", 3).unwrap();
    assert!(interp.lock_faults.is_empty());
}

// ---- The fuzz oracle's entry API ---------------------------------------------

#[test]
fn call_entry_takes_explicit_args_and_pads_missing_ones() {
    let m = parse(
        r#"
        lock locks[4];
        void f(int i, int j) {
            spin_lock(&locks[i]);
            spin_unlock(&locks[j]);
        }
        "#,
    );
    // Distinct indices: unlock releases a lock that was never taken.
    let mut interp = Interp::new(&m, 100_000);
    interp
        .call_entry("f", &[Value::Int(1), Value::Int(2)])
        .unwrap();
    assert_eq!(interp.lock_faults.len(), 1);
    assert!(interp.lock_faults[0].detail.contains("unheld"));

    // Same index: perfectly balanced.
    let mut interp = Interp::new(&m, 100_000);
    interp
        .call_entry("f", &[Value::Int(2), Value::Int(2)])
        .unwrap();
    assert!(interp.lock_faults.is_empty());

    // Missing trailing args default to the parameter type's zero (0 ==
    // 0, so this is again balanced).
    let mut interp = Interp::new(&m, 100_000);
    interp.call_entry("f", &[]).unwrap();
    assert!(interp.lock_faults.is_empty());
}

#[test]
fn default_args_give_lock_params_a_free_lock() {
    // A by-value lock parameter must arrive as a (free) lock value, not
    // the integer argument — otherwise `spin_lock(&l)` is a TypeFault
    // and the oracle observes noise instead of lock behaviour.
    let m = parse(
        r#"
        void f(lock l) {
            spin_lock(&l);
            spin_unlock(&l);
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("f", 7).unwrap();
    assert!(interp.lock_faults.is_empty());
}

#[test]
fn interrupt_reentry_double_acquire_is_observed() {
    // The kernel idiom the checker must never miss: an interrupt
    // handler that re-acquires a lock its interrupted context already
    // holds. Modeled as a direct call while the lock is held.
    let m = parse(
        r#"
        lock mu;
        int state;
        void isr() {
            spin_lock(&mu);
            state = 0;
            spin_unlock(&mu);
        }
        void top_half(int pending) {
            spin_lock(&mu);
            state = 1;
            if (pending) { isr(); }
            spin_unlock(&mu);
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_entry("top_half", &[Value::Int(1)]).unwrap();
    // The cascade: the isr re-acquires a held lock, its unlock then
    // frees it, so the interrupted context's own unlock hits an unheld
    // lock — two splats, like real lockdep output.
    assert_eq!(interp.lock_faults.len(), 2);
    assert!(interp.lock_faults[0].detail.contains("double acquire"));
    assert_eq!(
        interp.lock_faults[0].fun, "isr",
        "the first fault is attributed to the re-entering function"
    );
    assert!(interp.lock_faults[1].detail.contains("unheld"));
    assert_eq!(interp.lock_faults[1].fun, "top_half");

    // Without the pending interrupt the same code is silent.
    let mut interp = Interp::new(&m, 100_000);
    interp.call_entry("top_half", &[Value::Int(0)]).unwrap();
    assert!(interp.lock_faults.is_empty());
}

#[test]
fn release_through_stale_alias_violates_restrict_not_lockdep() {
    // Releasing through an alias the restrict scope poisoned is a
    // Theorem-1 violation (the §3.2 `err` read), not a lock fault: the
    // oracle's second axis.
    let m = parse(
        r#"
        lock mu;
        void f() {
            lock *p = &mu;
            restrict q = &mu {
                spin_lock(q);
                spin_unlock(p);
            }
        }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    let err = interp.call_entry("f", &[]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::RestrictViolation { .. }),
        "{err}"
    );
}

#[test]
fn held_locks_counts_leaks_after_return() {
    let m = parse(
        r#"
        struct dev { lock mu; int state; };
        void begin(struct dev *d) { spin_lock(&d->mu); d->state = 1; }
        void end(struct dev *d) { d->state = 0; spin_unlock(&d->mu); }
        void balanced(struct dev *d) { begin(d); end(d); }
        void leaky(struct dev *d) { begin(d); }
        "#,
    );
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("balanced", 0).unwrap();
    assert!(interp.lock_faults.is_empty());
    assert_eq!(interp.held_locks(), 0);

    // Handoff that never completes: the lock escapes the call balanced.
    let mut interp = Interp::new(&m, 100_000);
    interp.call_with_default_args("leaky", 0).unwrap();
    assert!(interp.lock_faults.is_empty());
    assert_eq!(interp.held_locks(), 1);
}

/// A fault names the expression that read or wrote the cell, printed as
/// source.
#[test]
fn fault_details_name_the_accessing_expression() {
    let detail = |src: &str| match run(src, "main").unwrap_err() {
        RuntimeError::RestrictViolation { detail } | RuntimeError::MemoryFault { detail } => detail,
        other => panic!("not a restrict or memory fault: {other}"),
    };
    let read = detail(
        r#"
        int main() {
            int *q = new (1);
            int v = 0;
            restrict p = q { v = *q + 1; }
            return v;
        }
        "#,
    );
    let write = detail(
        r#"
        struct s { int f; };
        int main() {
            struct s *q = new (0);
            restrict p = q { q->f = 3; }
            return 0;
        }
        "#,
    );
    let out_of_bounds = detail("int arr[2]; int main() { int i = 5; return arr[i + 1]; }");
    assert_eq!(
        [read, write, out_of_bounds],
        [
            "read of restricted cell @1+0 (*(q))",
            "write to restricted cell @1+0 (q->f)",
            "read of @0+6 (arr[(i + 1)]) out of bounds",
        ]
    );
}
